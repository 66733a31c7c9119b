// perfbench: runs one named workload of the repo benchmark in a single
// process and prints, as the last line of stdout, one JSON object with
// the run's correctness verdict, operations attempted and failed, and
// its metrics -- the end-to-end set with --trace 0, the per-layer set
// with --trace 1.
//
//   perfbench --workload render_orbit|serve_open|wire_stream
//             --seed N --seconds S --trace 0|1

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "render_orbit|serve_open|wire_stream --seed N "
                 "--seconds S --trace 0|1\n";
    return 2;
}

bool
parseUnsigned(const char *s, uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        uint64_t n = 0;
        if (a == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            if (!parseUnsigned(v, n))
                return usage("--seed takes a non-negative integer");
            opt.seed = n;
            have_seed = true;
        } else if (a == "--seconds") {
            if (!parseUnsigned(v, n) || n < 1 || n > 600)
                return usage("--seconds takes an integer in [1, 600]");
            opt.seconds = double(n);
            have_seconds = true;
        } else if (a == "--trace") {
            if (!parseUnsigned(v, n) || n > 1)
                return usage("--trace takes 0 or 1");
            opt.trace = n == 1;
            have_trace = true;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are required");

    RunResult r;
    if (opt.workload == "render_orbit")
        r = runRenderOrbit(opt);
    else if (opt.workload == "serve_open")
        r = runServeOpen(opt);
    else if (opt.workload == "wire_stream")
        r = runWireStream(opt);
    else
        return usage(("unknown workload " + opt.workload).c_str());

    const std::vector<MetricSpec> &specs =
        opt.trace ? perLayerMetrics() : endToEndMetrics();
    std::ostringstream os;
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < specs.size(); ++i) {
        const MetricSpec &m = specs[i];
        double value = 0.0;
        auto it = r.metrics.find(m.name);
        if (it != r.metrics.end()) {
            if (it->second.unit != m.unit) {
                std::cerr << "perfbench: metric " << m.name << " has unit "
                          << it->second.unit << ", expected " << m.unit
                          << "\n";
                return 3;
            }
            value = it->second.value;
        } else {
            bool idle = false;
            for (const std::string &layer : r.idle_layers)
                idle = idle || std::strncmp(m.name, layer.c_str(),
                                            layer.size()) == 0;
            if (!idle) {
                std::cerr << "perfbench: workload " << opt.workload
                          << " did not measure " << m.name << "\n";
                return 3;
            }
        }
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << formatNumber(value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}
