// xrlflow_perfbench: one benchmark for the whole pipeline.
//
//   xrlflow_perfbench --workload <train_inception|infer_bert|serve_mix>
//                     --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set; with --trace 1 tracing is switched on (as
// XRLFLOW_TRACE=1 would) and the metrics are the per-layer set.
// perfbench/README.md describes the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

const char* const end_to_end_names[] = {"setup_s",   "op_ms_p50",       "op_ms_tail",
                                        "ops_per_s", "speedup_geomean", "peak_rss_mb"};

bool parse(int argc, char** argv, Options& options)
{
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (key == "--seed") {
                options.seed = std::stoull(value);
                have_seed = true;
            } else if (key == "--seconds") {
                options.seconds = std::stod(value);
                have_seconds = options.seconds > 0.0;
            } else if (key == "--trace") {
                options.trace = value == "1";
                have_trace = value == "0" || value == "1";
            } else if (key == "--trace-dir") {
                options.trace_dir = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

void print_json_metric(bool& first, const std::string& name, const Metric& metric)
{
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                metric.value, metric.unit.c_str());
    first = false;
}

} // namespace

int main(int argc, char** argv)
{
    Options options;
    if (!parse(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: %s --workload <train_inception|infer_bert|serve_mix> --seed <n> "
                     "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
                     argv[0]);
        return 2;
    }
    const std::map<std::string, std::function<Report(const Options&)>> workloads = {
        {"train_inception", run_train_inception},
        {"infer_bert", run_infer_bert},
        {"serve_mix", run_serve_mix},
    };
    const auto workload = workloads.find(options.workload);
    if (workload == workloads.end()) {
        std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
        return 2;
    }
    if (options.trace) xrl::set_trace_enabled(true);

    Report report;
    try {
        report = workload->second(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "workload %s aborted: %s\n", options.workload.c_str(), e.what());
        return 1;
    }
    if (options.trace) fill_missing_layers(report);
    for (const char* name : end_to_end_names)
        if (report.end_to_end.find(name) == report.end_to_end.end())
            report.problem(std::string("end-to-end metric missing: ") + name);
    const auto& metrics = options.trace ? report.layers : report.end_to_end;
    for (const auto& [name, metric] : metrics)
        if (!std::isfinite(metric.value)) report.problem("metric " + name + " is not finite");

    std::printf("workload %s  seed %llu  seconds %g  trace %d\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
    std::printf("  op: %s\n", report.op.c_str());
    for (const auto& [name, metric] : report.notes)
        std::printf("  %-36s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
    std::printf("  end-to-end%s\n", options.trace ? " (traced: not comparable)" : "");
    for (const auto& [name, metric] : report.end_to_end)
        std::printf("    %-34s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
    if (options.trace) {
        std::printf("  per layer\n");
        for (const auto& [name, metric] : report.layers)
            std::printf("    %-34s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
    }
    std::printf("  attempted %llu  failed %llu  failed_frac %g  digest %s\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                report.attempted > 0 ? static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted)
                                     : 0.0,
                report.digest.c_str());
    for (const std::string& problem : report.problems)
        std::printf("  PROBLEM: %s\n", problem.c_str());
    std::printf("  verdict: %s\n", report.correct ? "correct" : "INCORRECT");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                report.correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    bool first = true;
    for (const auto& [name, metric] : metrics)
        if (std::isfinite(metric.value)) print_json_metric(first, name, metric);
    std::printf("}}\n");
    std::fflush(stdout);
    return 0;
}
