/**
 * @file
 * exo2bench — the repository benchmark's driver. Normally started by
 * perfbench/run.py, which builds it, prepares a run directory and turns
 * the result line into the benchmark's output.
 *
 *   exo2bench library|tune|serve --seed N --seconds S --trace 0|1
 *   exo2bench selftest    plant a wrong answer for every check
 *   exo2bench daemon      the serve workload's daemon process
 *
 * The last line of standard output is `PERFBENCH_RESULT <json>`.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using perfbench::Result;

std::string
json_str(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char b[8];
            std::snprintf(b, sizeof(b), "\\u%04x", c);
            out += b;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
json_num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char b[40];
    std::snprintf(b, sizeof(b), "%.17g", v);
    return b;
}

void
print_result(const Result& r)
{
    std::string s = "{\"correct\": ";
    s += r.correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(r.attempted);
    s += ", \"failed\": " + std::to_string(r.failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : r.metrics) {
        s += (first ? "" : ", ") + json_str(name) + ": {\"value\": " +
             json_num(vu.first) + ", \"unit\": " + json_str(vu.second) +
             "}";
        first = false;
    }
    s += "}, \"trace_files\": [";
    for (size_t i = 0; i < r.trace_files.size(); i++)
        s += (i ? ", " : "") + json_str(r.trace_files[i]);
    s += "], \"dropped_spans\": " + std::to_string(r.dropped_spans);
    s += ", \"trace_units\": " + std::to_string(r.trace_units);
    s += ", \"root_calls\": [";
    for (size_t i = 0; i < r.root_calls.size(); i++) {
        const auto& c = r.root_calls[i];
        s += (i ? ", " : "") + std::string("[") + json_str(c.span) + ", " +
             json_num(c.seconds) + ", " + json_str(c.rid) + "]";
    }
    s += "]}";
    std::cout << "PERFBENCH_RESULT " << s << std::endl;
}

int
usage()
{
    std::cerr << "usage: exo2bench library|tune|serve --seed N --seconds S "
                 "--trace 0|1\n"
                 "       exo2bench selftest | daemon\n";
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "daemon")
        return perfbench::daemon_main(argc, argv);
    if (cmd == "selftest")
        return perfbench::selftest_main();

    // setup_s counts from here: the few milliseconds of exec and
    // dynamic loading before main() vary more than they weigh.
    perfbench::RunOpts o;
    o.t0 = perfbench::now_s();
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            o.trace = v == "1";
        else
            return usage();
    }
    char self[4096];
    ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n <= 0)
        return usage();
    self[n] = '\0';
    o.self = self;

    Result r;
    try {
        if (cmd == "library")
            r = perfbench::run_library(o);
        else if (cmd == "tune")
            r = perfbench::run_tune(o);
        else if (cmd == "serve")
            r = perfbench::run_serve(o);
        else
            return usage();
    } catch (const std::exception& e) {
        std::cerr << "exo2bench: " << e.what() << "\n";
        return 1;
    }
    print_result(r);
    return 0;
}
