/**
 * @file
 * hmbench: run one benchmark workload and print every metric.
 *
 *   hmbench --workload <net-zipf-hot|inproc-cold|paper-matrix>
 *           [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
 *           [--setup-only]
 *
 * Prints the workload properties and a metric table (name, value,
 * unit, sample count), then one JSON line. Exits 1 when any answer
 * disagrees with the library reference, 2 on bad arguments or an
 * internal error.
 */

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "report.hh"
#include "spans.hh"
#include "util/logging.hh"
#include "workloads.hh"

namespace {

/** Taken during static initialization: the process start for setup_s. */
const int64_t g_process_start_ns = hmbench::nowNs();

/**
 * One lowest-priority (SCHED_IDLE) spinning thread per CPU for the
 * life of the run. On a virtual machine an idle vCPU halts and gives
 * its core back to the host, and waking it again costs the host's
 * scheduling latency, which varies from microseconds to milliseconds
 * with the host's load. Every cross-thread hand-off of a request pays
 * it, so without the spinners the serving latencies measure the host
 * rather than this program. A SCHED_IDLE thread runs only when its CPU
 * has nothing else to run, so the program's own threads preempt it at
 * once. A spinner that cannot lower its priority exits instead of
 * competing with the program.
 */
class IdleSpinners
{
  public:
    IdleSpinners()
    {
        const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
        for (unsigned i = 0; i < cpus; ++i)
            threads_.emplace_back([this] { spin(); });
    }
    ~IdleSpinners()
    {
        stop_.store(true, std::memory_order_relaxed);
        for (auto &thread : threads_)
            thread.join();
    }
    IdleSpinners(const IdleSpinners &) = delete;
    IdleSpinners &operator=(const IdleSpinners &) = delete;

    /** Spinners that got SCHED_IDLE and are running. */
    unsigned running() const { return running_.load(); }

  private:
    std::atomic<bool> stop_{false};
    std::atomic<unsigned> running_{0};
    std::vector<std::thread> threads_;

    void spin()
    {
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0)
            return;
        running_.fetch_add(1);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
        }
    }
};

int
usage(const std::string &why)
{
    std::cerr << "hmbench: " << why
              << "\nusage: hmbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out PATH] "
                 "[--setup-only]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    heteromap::setLogVerbose(false);
    hmbench::RunOptions options;
    options.processStartNs = g_process_start_ns;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-only") {
            options.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (arg == "--trace")
            options.trace = value == "1";
        else if (arg == "--trace-out")
            options.traceOut = value;
        else
            return usage("unknown argument " + arg);
    }
    if (options.seconds <= 0.0)
        return usage("--seconds must be positive");

    hmbench::Report report;
    const IdleSpinners spinners;
    try {
        if (!hmbench::runWorkload(options, report))
            return usage("unknown workload '" + options.workload + "'");
    } catch (const std::exception &error) {
        std::cerr << "hmbench: " << error.what() << "\n";
        return 2;
    }
    report.property("idle_spinners",
                    std::to_string(spinners.running()) +
                        " SCHED_IDLE threads keep the CPUs from halting");
    report.printTable(std::cout);
    std::cout << report.json() << std::endl;
    return report.tally.mismatches == 0 ? 0 : 1;
}
