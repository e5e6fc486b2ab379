/**
 * @file
 * The `serve` workload: the scheduling daemon (serve::Daemon, the
 * engine of exo2d) runs in its own process; set-up warms its tuning
 * cache with cold tunes of the five kernels; the measured phase is a
 * closed loop of client connections sending a seeded mix of warm
 * `op=tune` and validated `op=schedule` requests.
 *
 * The daemon process is this binary started again as `exo2bench
 * daemon`: it runs the same Daemon with the same configuration as
 * exo2d, and additionally can switch the span tracer on after set-up
 * (SIGUSR1) and report the spans it dropped when it exits.
 */

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "bench.h"
#include "src/cache/cache.h"
#include "src/obs/trace.h"
#include "src/serve/client.h"
#include "src/serve/daemon.h"
#include "src/verify/fuzz.h"

extern char** environ;

namespace perfbench {

using namespace exo2;

namespace {

const char* kSocket = "exo2d.sock";
const char* kStats = "daemon_stats.txt";
const char* kTraceAck = "trace.ack";
const char* kDaemonTrace = "daemon_trace.json";

/** A run sends whole rounds of the mix, and at least this many
 *  requests, so that ten or more lie beyond p95. */
constexpr long kMinRequests = 200;

/** The request mix, per kernel and round. A warm op=tune is the set-up
 *  cold tune sent again (cache probe, replay, re-simulation, tri-oracle
 *  revalidation): a build script or tuning client asking for a kernel
 *  it has asked for before. An op=schedule with validate=1 submits the
 *  kernel's full set-up winner script (replay, admission lint, cost,
 *  validation): a caller checking a schedule it already holds. No
 *  measured caller traffic gives a ratio between the two, so they are
 *  weighted equally; this is an assumption (see README.md). The counts
 *  are fixed, so the mix is the same whatever the tuner returns. */
constexpr int kWarmTunesPerKernel = 1;
constexpr int kSchedulesPerKernel = 1;

volatile sig_atomic_t g_trace_requested = 0;
volatile sig_atomic_t g_stop = 0;

void on_usr1(int) { g_trace_requested = 1; }
void on_term(int) { g_stop = 1; }

bool
file_exists(const char* path)
{
    struct stat st;
    return stat(path, &st) == 0;
}

void
sleep_ms(long ms)
{
    struct timespec ts = {ms / 1000, (ms % 1000) * 1000000};
    nanosleep(&ts, nullptr);
}

/** The canonical size rendering the daemon and the tune cache use. */
std::string
sizes_text(const SizeEnv& env)
{
    std::string s;
    for (const auto& [k, v] : env)
        s += (s.empty() ? "" : ",") + k + "=" + std::to_string(v);
    return s;
}

serve::ServeRequest
tune_request(const KernelCase& c)
{
    serve::ServeRequest r;
    r.op = "tune";
    r.kernel = c.name;
    r.sizes = sizes_text(c.tune_sizes);
    r.beam = 3;
    r.rounds = 4;
    r.jit_topk = 0;
    r.validate = 1;
    return r;
}

double
extra_ms(const serve::ServeResponse& r, const std::string& key)
{
    auto it = r.extra.find(key);
    return it == r.extra.end() ? 0.0 : std::atof(it->second.c_str());
}

struct Planned
{
    size_t kernel;
    serve::ServeRequest req;
};

struct Sample
{
    long idx;
    size_t plan_index;
    double latency_ms;
    bool transport_ok;
    serve::ServeResponse resp;
};

/** Hands out requests in whole rounds until the run has lasted
 *  `seconds` and sent at least kMinRequests. Every round holds each
 *  request of the plan once, in its own seeded order, so that which
 *  requests queue behind which varies within a run. */
class Dispenser
{
  public:
    Dispenser(size_t round, uint64_t seed, double t0, double seconds)
        : order_(round), seed_(seed), t0_(t0), seconds_(seconds)
    {
    }
    /** Request number and plan index, or false when the run is over. */
    bool next(long* idx, size_t* plan_index)
    {
        std::lock_guard<std::mutex> lk(mu_);
        long round = static_cast<long>(order_.size());
        if (next_ % round == 0) {
            if (next_ >= kMinRequests && now_s() - t0_ >= seconds_)
                return false;
            for (size_t j = 0; j < order_.size(); j++)
                order_[j] = j;
            uint64_t r = mix64(seed_ * 7919 + static_cast<uint64_t>(next_));
            for (size_t j = order_.size(); j > 1; j--) {
                r = mix64(r);
                std::swap(order_[j - 1], order_[r % j]);
            }
        }
        *idx = next_;
        *plan_index = order_[static_cast<size_t>(next_ % round)];
        next_++;
        return true;
    }

  private:
    std::mutex mu_;
    std::vector<size_t> order_;
    uint64_t seed_;
    double t0_, seconds_;
    long next_ = 0;
};

/** Start `exo2bench daemon` with the tuning and compile caches in
 *  `cache_dir`. */
pid_t
spawn_daemon(const RunOpts& o, const std::string& cache_dir)
{
    std::vector<std::string> env_s;
    for (char** e = environ; *e; e++) {
        if (std::strncmp(*e, "EXO2_CACHE_DIR=", 15) != 0)
            env_s.push_back(*e);
    }
    env_s.push_back("EXO2_CACHE_DIR=" + cache_dir);
    std::vector<char*> envp;
    for (std::string& s : env_s)
        envp.push_back(s.data());
    envp.push_back(nullptr);
    std::vector<std::string> args_s = {o.self, "daemon"};
    std::vector<char*> argv;
    for (std::string& s : args_s)
        argv.push_back(s.data());
    argv.push_back(nullptr);
    pid_t pid = fork();
    if (pid == 0) {
        execve(o.self.c_str(), argv.data(), envp.data());
        _exit(127);
    }
    return pid;
}

/** Owns the daemon process: kills and reaps it if the run ends without
 *  the orderly shutdown (an exception, an early return). */
class DaemonProcess
{
  public:
    explicit DaemonProcess(pid_t pid) : pid_(pid) {}
    ~DaemonProcess()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }
    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;
    pid_t pid() const { return pid_; }
    /** Wait up to `timeout_s` for the daemon to exit on its own (then
     *  kill it); true when it exited with status 0. */
    bool reap(double timeout_s)
    {
        double t0 = now_s();
        int status = 0;
        for (;;) {
            pid_t r = waitpid(pid_, &status, WNOHANG);
            if (r == pid_) {
                pid_ = -1;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            if (r < 0 || now_s() - t0 > timeout_s)
                return false;  // the destructor kills it
            sleep_ms(20);
        }
    }

  private:
    pid_t pid_;
};

/** Peak resident set size (VmHWM) of process `pid`, MB; 0 if unknown. */
double
vm_hwm_mb(pid_t pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
    return 0;
}

}  // namespace

double
engine_phase_ms(const serve::ServeResponse& r)
{
    double s = 0;
    for (const char* p : {"lint", "cache", "search", "cjit", "validate"})
        s += extra_ms(r, std::string("phase_") + p + "_ms");
    return s;
}

std::string
check_warm_tune(const serve::ServeResponse& r, const std::string& setup_script)
{
    if (!r.from_cache)
        return "warm tune not served from the cache";
    if (r.script != setup_script)
        return "warm tune script differs from its set-up cold tune";
    return check_validated("warm tune", r.validated);
}

std::string
check_schedule_reply(const serve::ServeResponse& r, const std::string& want_hex)
{
    auto it = r.extra.find("digest");
    if (it == r.extra.end() || it->second != want_hex)
        return "digest differs from an in-process replay";
    return check_validated("schedule", r.validated);
}

std::string
check_reply_timing(const serve::ServeResponse& r, double latency_ms)
{
    // Phases and elapsed_ms travel with three decimals.
    double phases = engine_phase_ms(r);
    if (phases <= r.elapsed_ms + 0.005 && r.elapsed_ms <= latency_ms + 0.001)
        return "";
    return "phases " + std::to_string(phases) + " ms, elapsed " +
           std::to_string(r.elapsed_ms) + " ms, client " +
           std::to_string(latency_ms) + " ms";
}

int
daemon_main(int, char**)
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = on_usr1;
    sigaction(SIGUSR1, &sa, nullptr);
    sa.sa_handler = on_term;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    serve::ServeConfig cfg;
    try {
        cfg = serve::ServeConfig::from_env();
        cfg.socket_path = kSocket;
    } catch (const std::exception& e) {
        std::cerr << "exo2bench daemon: " << e.what() << "\n";
        return 2;
    }
    serve::Daemon daemon(cfg);
    try {
        daemon.start();
    } catch (const std::exception& e) {
        std::cerr << "exo2bench daemon: " << e.what() << "\n";
        return 2;
    }
    bool tracing = false;
    while (!g_stop && !daemon.draining()) {
        if (g_trace_requested && !tracing) {
            obs::trace_clear();
            obs::trace_start();
            tracing = true;
            std::ofstream(kTraceAck) << "on\n";
        }
        sleep_ms(5);
    }
    daemon.stop();
    std::ofstream st(kStats);
    if (tracing) {
        obs::trace_stop();
        if (!obs::trace_flush(kDaemonTrace))
            return 3;
    }
    st << "dropped_spans " << obs::trace_dropped() << "\n";
    return st.good() ? 0 : 3;
}

Result
run_serve(const RunOpts& o)
{
    Result res;
    const std::vector<KernelCase>& cs = kernel_cases();
    mkdir("cache", 0755);
    char cwd[4096];
    if (!getcwd(cwd, sizeof(cwd))) {
        res.fail_check("getcwd failed");
        return res;
    }
    DaemonProcess daemon(spawn_daemon(o, std::string(cwd) + "/cache"));
    if (daemon.pid() < 0) {
        res.fail_check("fork failed");
        return res;
    }

    // -- Set-up: daemon up, cache warmed by cold tunes -------------------
    {
        serve::ServeClient probe(kSocket);
        double t0 = now_s();
        while (!probe.connect()) {
            if (now_s() - t0 > 60) {
                res.fail_check("daemon did not come up");
                return res;
            }
            sleep_ms(10);
        }
    }
    std::vector<std::string> script_text(cs.size());
    std::vector<std::vector<tune::FuzzStep>> script(cs.size());
    {
        serve::ServeClient cl(kSocket, 600);
        for (size_t i = 0; i < cs.size(); i++) {
            res.attempted++;
            serve::ServeResponse r;
            if (!cl.call(tune_request(cs[i]), &r) || !r.ok() ||
                r.from_cache) {
                res.failed++;
                std::cerr << "perfbench: cold tune " << cs[i].name << ": "
                          << r.status << " " << r.detail << "\n";
                continue;
            }
            script_text[i] = r.script;
            script[i] = verify::script_from_string(r.script);
        }
    }
    // -- The request mix ---------------------------------------------------
    // The same requests for every seed, which only chooses their order
    // in each round (see Dispenser).
    std::vector<Planned> plan;
    for (size_t k = 0; k < cs.size(); k++) {
        for (int j = 0; j < kWarmTunesPerKernel; j++)
            plan.push_back({k, tune_request(cs[k])});
        for (int j = 0; j < kSchedulesPerKernel; j++) {
            Planned p{k, {}};
            p.req.op = "schedule";
            p.req.kernel = cs[k].name;
            p.req.sizes = sizes_text(cs[k].tune_sizes);
            p.req.validate = 1;
            p.req.script = script_text[k];
            plan.push_back(p);
        }
    }

    // One warm-up round: the first validation of each distinct proc
    // compiles its C oracle into the compile cache; steady-state
    // serving pays only the cached load.
    {
        serve::ServeClient cl(kSocket, 120);
        for (const Planned& p : plan) {
            res.attempted++;
            serve::ServeResponse r;
            if (!cl.call(p.req, &r) || !r.ok()) {
                res.failed++;
                std::cerr << "perfbench: warm-up " << p.req.op << " "
                          << p.req.kernel << ": " << r.status << " "
                          << r.detail << "\n";
            }
        }
    }
    res.put("setup_s", now_s() - o.t0, "s");
    if (o.trace) {
        kill(daemon.pid(), SIGUSR1);
        double t0 = now_s();
        while (!file_exists(kTraceAck) && now_s() - t0 < 30)
            sleep_ms(5);
        if (!file_exists(kTraceAck))
            res.fail_check("daemon did not start tracing");
    }

    // -- Measured closed loop --------------------------------------------
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    int clients = static_cast<int>(std::min(4u, hw));
    std::vector<std::vector<Sample>> per_client(clients);
    // The daemon's peak RSS grows with the requests it has served, so
    // it is read after a fixed number of them (give or take the few in
    // flight), not at the end of a run whose length depends on speed.
    std::atomic<long> completed{0};
    double daemon_rss = 0;
    double loop_t0 = now_s();
    Dispenser disp(plan.size(), o.seed, loop_t0, o.seconds);
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; t++) {
        threads.emplace_back([&, t] {
            serve::ServeClient cl(kSocket, 120);
            long idx;
            size_t pi;
            while (disp.next(&idx, &pi)) {
                serve::ServeRequest req = plan[pi].req;
                req.id = "q" + std::to_string(idx);
                Sample s;
                s.idx = idx;
                s.plan_index = pi;
                double t0 = now_s();
                s.transport_ok = cl.call(req, &s.resp);
                s.latency_ms = (now_s() - t0) * 1e3;
                per_client[t].push_back(std::move(s));
                if (completed.fetch_add(1) + 1 == kMinRequests)
                    daemon_rss = vm_hwm_mb(daemon.pid());
            }
        });
    }
    for (std::thread& th : threads)
        th.join();
    double loop_s = now_s() - loop_t0;

    {
        serve::ServeClient cl(kSocket);
        serve::ServeRequest req;
        req.op = "shutdown";
        serve::ServeResponse r;
        cl.call(req, &r);
    }
    if (!daemon.reap(60))
        res.fail_check("daemon did not exit cleanly");
    {
        std::ifstream st(kStats);
        std::string key;
        uint64_t v = 0;
        if (!(st >> key >> v) || key != "dropped_spans")
            res.fail_check("daemon wrote no stats");
        res.dropped_spans = v;
    }
    if (daemon_rss <= 0)
        res.fail_check("could not read the daemon's peak RSS");
    if (o.trace)
        res.trace_files.push_back(kDaemonTrace);

    // -- Checks on every reply ------------------------------------------
    std::vector<std::string> want_digest(cs.size());
    for (size_t k = 0; k < cs.size(); k++)
        want_digest[k] = cache::hex64(
            proc_digest(tune::replay_script(cs[k].naive, script[k])));
    std::vector<double> lat, transport, unattributed, ph_cache, ph_validate,
        ph_lint;
    for (const auto& samples : per_client) {
        for (const Sample& s : samples) {
            res.attempted++;
            const Planned& p = plan[s.plan_index];
            const serve::ServeResponse& r = s.resp;
            if (!s.transport_ok || !r.ok()) {
                res.failed++;
                std::cerr << "perfbench: request q" << s.idx << " ("
                          << p.req.op << " " << p.req.kernel
                          << "): " << r.status << " " << r.detail << "\n";
                continue;
            }
            std::string who = "q" + std::to_string(s.idx) + " (" +
                              p.req.op + " " + p.req.kernel + ")";
            std::string err;
            if (p.req.op == "tune") {
                err = check_warm_tune(r, script_text[p.kernel]);
                ph_cache.push_back(extra_ms(r, "phase_cache_ms"));
                ph_validate.push_back(extra_ms(r, "phase_validate_ms"));
            } else {
                err = check_schedule_reply(r, want_digest[p.kernel]);
                ph_lint.push_back(extra_ms(r, "phase_lint_ms"));
            }
            if (err.empty())
                err = check_reply_timing(r, s.latency_ms);
            if (!err.empty())
                res.fail_check(who + ": " + err);
            double phases = engine_phase_ms(r);
            lat.push_back(s.latency_ms);
            transport.push_back(s.latency_ms - r.elapsed_ms);
            unattributed.push_back(r.elapsed_ms - phases);
            res.root_calls.push_back(
                {"serve.request", s.latency_ms / 1e3, r.id});
        }
    }
    res.trace_units = static_cast<long>(lat.size());

    // -- The schedules the daemon serves, compiled natively --------------
    NativeTimer timer;
    for (size_t i = 0; i < cs.size(); i++) {
        if (script_text[i].empty())
            continue;
        res.attempted++;
        try {
            ProcPtr best = tune::replay_script(cs[i].naive, script[i]);
            check_winner(&res, cs[i], naive_cycles(cs[i]), best, script[i],
                         &timer, o.seed);
        } catch (const std::exception& e) {
            res.failed++;
            std::cerr << "perfbench: served " << cs[i].name << ": "
                      << e.what() << "\n";
        }
    }

    std::vector<double> gflops = timed_gflops(&res, timer, 40, "served");

    res.put("peak_rss_mb", daemon_rss, "MB");
    res.put("p50_ms", median(lat), "ms");
    res.put("p95_ms", percentile(lat, 0.95), "ms");
    res.put("ops_per_s", static_cast<double>(lat.size()) / loop_s, "1/s");
    res.put("gflops", geomean(gflops), "GFLOP/s");
    res.put("serve.phase_cache_ms", median(ph_cache), "ms");
    res.put("serve.phase_validate_ms", median(ph_validate), "ms");
    res.put("serve.phase_lint_ms", median(ph_lint), "ms");
    res.put("serve.transport_ms", median(transport), "ms");
    res.put("serve.unattributed_ms", percentile(unattributed, 0.95), "ms");
    res.put("serve.clients", clients, "count");
    return res;
}

}  // namespace perfbench
