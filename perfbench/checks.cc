/**
 * @file
 * Kernel cases, plain C++ references, and the correctness checks of
 * the repository benchmark (see bench.h).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench.h"
#include "src/analysis/memo.h"
#include "src/cursor/accel.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/cost_sim.h"
#include "src/verify/verify.h"

namespace perfbench {

using namespace exo2;

void
Result::fail_check(const std::string& what)
{
    correct = false;
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::min(std::max<size_t>(rank, 1), v.size());
    return v[rank - 1];
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(std::max(x, 1e-300));
    return std::exp(s / static_cast<double>(v.size()));
}

double
peak_rss_mb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void
clear_engine_memos()
{
    clear_analysis_memo();
    clear_cost_sim_cache();
    clear_cursor_accel_caches();
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// C++ references. Inputs are f32 values held in doubles; the sums run
// in double, so the only difference from a correct kernel is its own
// f32 rounding.
// ---------------------------------------------------------------------------

namespace {

const double*
buf(const std::vector<RunArg>& a, int i)
{
    return a[static_cast<size_t>(i)].buf->data();
}

int64_t
size_arg(const std::vector<RunArg>& a, int i)
{
    return a[static_cast<size_t>(i)].size;
}

/** saxpy(n, a, x, y): y[i] += a * x[i]. */
RefOut
ref_saxpy(const std::vector<RunArg>& a)
{
    int64_t n = size_arg(a, 0);
    double s = a[1].scalar;
    const double* x = buf(a, 2);
    const double* y = buf(a, 3);
    RefOut r;
    for (int64_t i = 0; i < n; i++) {
        r.value.push_back(y[i] + s * x[i]);
        r.magnitude.push_back(std::fabs(y[i]) + std::fabs(s * x[i]));
    }
    return r;
}

/** sdot(n, x, y, res): res[0] += sum x[i] * y[i]. */
RefOut
ref_sdot(const std::vector<RunArg>& a)
{
    int64_t n = size_arg(a, 0);
    const double* x = buf(a, 1);
    const double* y = buf(a, 2);
    double acc = buf(a, 3)[0], mag = std::fabs(acc);
    for (int64_t i = 0; i < n; i++) {
        acc += x[i] * y[i];
        mag += std::fabs(x[i] * y[i]);
    }
    return {{acc}, {mag}};
}

/** sgemv_n(M, N, A, x, y): y[i] += sum_j x[j] * A[i, j]. */
RefOut
ref_sgemv_n(const std::vector<RunArg>& a)
{
    int64_t M = size_arg(a, 0), N = size_arg(a, 1);
    const double* A = buf(a, 2);
    const double* x = buf(a, 3);
    const double* y = buf(a, 4);
    RefOut r;
    for (int64_t i = 0; i < M; i++) {
        double acc = y[i], mag = std::fabs(y[i]);
        for (int64_t j = 0; j < N; j++) {
            acc += x[j] * A[i * N + j];
            mag += std::fabs(x[j] * A[i * N + j]);
        }
        r.value.push_back(acc);
        r.magnitude.push_back(mag);
    }
    return r;
}

/** sgemm(M, N, K, A, B, C): C[i, j] += sum_k A[i, k] * B[k, j]. */
RefOut
ref_sgemm(const std::vector<RunArg>& a)
{
    int64_t M = size_arg(a, 0), N = size_arg(a, 1), K = size_arg(a, 2);
    const double* A = buf(a, 3);
    const double* B = buf(a, 4);
    const double* C = buf(a, 5);
    RefOut r;
    for (int64_t i = 0; i < M; i++) {
        for (int64_t j = 0; j < N; j++) {
            double acc = C[i * N + j], mag = std::fabs(acc);
            for (int64_t k = 0; k < K; k++) {
                acc += A[i * K + k] * B[k * N + j];
                mag += std::fabs(A[i * K + k] * B[k * N + j]);
            }
            r.value.push_back(acc);
            r.magnitude.push_back(mag);
        }
    }
    return r;
}

/** blur(H, W, inp, blur_y): a 3-wide horizontal then a 3-tall
 *  vertical box filter, each scaled by the f32 constant 1/3. */
RefOut
ref_blur(const std::vector<RunArg>& a)
{
    int64_t H = size_arg(a, 0), W = size_arg(a, 1);
    const double* in = buf(a, 2);
    const double third = static_cast<double>(0.33333334f);
    std::vector<double> bx(static_cast<size_t>((H + 2) * W));
    std::vector<double> bxm(bx.size());
    for (int64_t y = 0; y < H + 2; y++) {
        for (int64_t x = 0; x < W; x++) {
            const double* row = in + y * (W + 2) + x;
            bx[y * W + x] = (row[0] + row[1] + row[2]) * third;
            bxm[y * W + x] = (std::fabs(row[0]) + std::fabs(row[1]) +
                              std::fabs(row[2])) *
                             third;
        }
    }
    RefOut r;
    for (int64_t y = 0; y < H; y++) {
        for (int64_t x = 0; x < W; x++) {
            r.value.push_back(
                (bx[y * W + x] + bx[(y + 1) * W + x] +
                 bx[(y + 2) * W + x]) *
                third);
            r.magnitude.push_back(
                (bxm[y * W + x] + bxm[(y + 1) * W + x] +
                 bxm[(y + 2) * W + x]) *
                third);
        }
    }
    return r;
}

std::vector<KernelCase>
build_cases()
{
    std::vector<KernelCase> cs;
    const int64_t n = 1 << 16;
    {
        KernelCase c;
        c.name = "saxpy";
        c.naive = kernels::find_kernel("saxpy").proc;
        c.tune_sizes = {{"n", 2048}};
        c.bench_sizes = {{"n", n}};
        c.flops = 2.0 * static_cast<double>(n);
        c.out_arg = 3;
        c.ref = ref_saxpy;
        cs.push_back(c);
    }
    {
        KernelCase c;
        c.name = "sdot";
        c.naive = kernels::find_kernel("sdot").proc;
        c.tune_sizes = {{"n", 2048}};
        c.bench_sizes = {{"n", n}};
        c.flops = 2.0 * static_cast<double>(n);
        c.out_arg = 3;
        c.ref = ref_sdot;
        cs.push_back(c);
    }
    {
        KernelCase c;
        c.name = "sgemv_n";
        c.naive = kernels::find_kernel("sgemv_n").proc;
        c.tune_sizes = {{"M", 48}, {"N", 48}};
        c.bench_sizes = {{"M", 512}, {"N", 512}};
        c.flops = 2.0 * 512.0 * 512.0;
        c.out_arg = 4;
        c.ref = ref_sgemv_n;
        cs.push_back(c);
    }
    {
        KernelCase c;
        c.name = "sgemm";
        c.naive = kernels::sgemm();
        c.tune_sizes = {{"K", 16}, {"M", 16}, {"N", 16}};
        c.bench_sizes = {{"K", 192}, {"M", 192}, {"N", 192}};
        c.flops = 2.0 * 192.0 * 192.0 * 192.0;
        c.out_arg = 5;
        c.ref = ref_sgemm;
        c.max_rounds = 6;
        cs.push_back(c);
    }
    {
        KernelCase c;
        c.name = "blur";
        c.naive = kernels::blur();
        // The smallest sizes blur's assertions admit.
        c.tune_sizes = {{"H", 32}, {"W", 256}};
        c.bench_sizes = {{"H", 64}, {"W", 512}};
        c.flops = 3.0 * (66.0 * 512.0 + 64.0 * 512.0);
        c.out_arg = 3;
        c.ref = ref_blur;
        cs.push_back(c);
    }
    return cs;
}

}  // namespace

const std::vector<KernelCase>&
kernel_cases()
{
    static const std::vector<KernelCase> cs = build_cases();
    return cs;
}

tune::TuneOpts
tune_opts(const KernelCase& c)
{
    tune::TuneOpts o;
    o.tune_sizes = c.tune_sizes;
    o.max_rounds = c.max_rounds;
    o.jit_topk = 0;
    o.validate = true;
    o.use_cache = false;
    return o;
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

std::string
check_against_ref(const RefOut& ref, const double* got, int64_t n)
{
    if (static_cast<size_t>(n) != ref.value.size())
        return "output has " + std::to_string(n) + " elements, reference " +
               std::to_string(ref.value.size());
    for (int64_t i = 0; i < n; i++) {
        double want = ref.value[static_cast<size_t>(i)];
        double tol = 1e-5 * ref.magnitude[static_cast<size_t>(i)] + 1e-6;
        if (!(std::fabs(got[i] - want) <= tol)) {
            char b[160];
            std::snprintf(b, sizeof(b),
                          "element %lld is %.9g, reference %.9g "
                          "(tolerance %.3g)",
                          static_cast<long long>(i), got[i], want, tol);
            return b;
        }
    }
    return "";
}

std::string
check_compiled(const KernelCase& c, const verify::CompiledProc& cp,
               const ProcPtr& p, uint64_t seed, double perturb)
{
    if (!verify::preds_hold(p, c.bench_sizes))
        return c.name + ": bench sizes violate the schedule's assertions";
    verify::OracleInputs in = verify::make_inputs(p, c.bench_sizes, seed);
    RefOut ref = c.ref(in.args);
    cp.run(in.args);
    Buffer* out = in.args[static_cast<size_t>(c.out_arg)].buf;
    out->data()[0] += perturb;
    std::string err = check_against_ref(ref, out->data(), out->size());
    return err.empty() ? "" : c.name + " (native): " + err;
}

std::string
check_native(const KernelCase& c, const ProcPtr& p, uint64_t seed,
             double perturb)
{
    verify::CompiledProc cp(p);
    return check_compiled(c, cp, p, seed, perturb);
}

std::string
check_interp_equal(const ProcPtr& original, const ProcPtr& scheduled,
                   const SizeEnv& sizes, uint64_t seed, double rel_tol,
                   double* seconds, double perturb)
{
    verify::OracleInputs a = verify::make_inputs(original, sizes, seed);
    verify::OracleInputs b = verify::make_inputs(scheduled, sizes, seed);
    if (a.buffers.size() != b.buffers.size())
        return original->name() + ": signatures differ";
    double t0 = now_s();
    interp_run(original, a.args);
    interp_run(scheduled, b.args);
    if (seconds)
        *seconds += now_s() - t0;
    if (!b.buffers.empty() && b.buffers.back()->size() > 0)
        b.buffers.back()->data()[0] += perturb;
    for (size_t i = 0; i < a.buffers.size(); i++) {
        const Buffer& x = *a.buffers[i];
        const Buffer& y = *b.buffers[i];
        if (x.size() != y.size())
            return original->name() + ": buffer sizes differ";
        for (int64_t j = 0; j < x.size(); j++) {
            double err = std::fabs(x.at(j) - y.at(j)) /
                         std::max(1.0, std::max(std::fabs(x.at(j)),
                                                std::fabs(y.at(j))));
            if (!(err <= rel_tol)) {
                char b2[200];
                std::snprintf(b2, sizeof(b2),
                              "%s: buffer %zu element %lld: original "
                              "%.9g, scheduled %.9g",
                              original->name().c_str(), i,
                              static_cast<long long>(j), x.at(j),
                              y.at(j));
                return b2;
            }
        }
    }
    return "";
}

std::string
check_replay_digest(const ProcPtr& naive,
                    const std::vector<tune::FuzzStep>& script,
                    uint64_t digest)
{
    ProcPtr q = tune::replay_script(naive, script);
    if (proc_digest(q) != digest)
        return naive->name() + ": script replays to digest " +
               std::to_string(proc_digest(q)) + ", expected " +
               std::to_string(digest);
    return "";
}

double
naive_cycles(const KernelCase& c)
{
    return simulate_cost_named(c.naive, c.tune_sizes).cycles;
}

std::string
check_cost_not_worse(const KernelCase& c, double naive, const ProcPtr& p)
{
    double cost = simulate_cost_named(p, c.tune_sizes).cycles;
    if (cost <= naive)
        return "";
    return c.name + ": schedule simulates to " + std::to_string(cost) +
           " cycles, naive " + std::to_string(naive);
}

std::string
check_validated(const std::string& what, bool validated)
{
    return validated ? "" : what + " not validated";
}

std::string
check_same_proc(const std::string& what, const ProcPtr& before,
                const ProcPtr& now)
{
    if (!before || proc_digest(before) == proc_digest(now))
        return "";
    return what + " differs between runs of the same work";
}

void
NativeTimer::add(const KernelCase& c, const ProcPtr& p)
{
    Slot s;
    s.c = &c;
    s.p = p;
    s.cp = std::make_unique<verify::CompiledProc>(p);
    s.in = verify::make_inputs(p, c.bench_sizes, 4242);
    for (auto& a : s.in.args) {
        if (a.kind == RunArg::Kind::Scalar)
            a.scalar = 1.0;  // keep iterated kernels out of denormals
    }
    s.cp->time_run(s.in.args, 4);  // warm caches and page tables
    double per_call = s.cp->time_run(s.in.args, 16) / 16;
    s.iters = static_cast<int>(0.02 / std::max(per_call, 1e-9));
    s.iters = std::max(4, std::min(s.iters, 1000000));
    slots_.push_back(std::move(s));
}

void
NativeTimer::sample()
{
    for (Slot& s : slots_) {
        double t = s.cp->time_run(s.in.args, s.iters) / s.iters;
        s.g.push_back(s.c->flops / t / 1e9);
    }
}

std::string
NativeTimer::check(size_t i, uint64_t seed) const
{
    return check_compiled(*slots_[i].c, *slots_[i].cp, slots_[i].p, seed);
}

std::vector<double>
NativeTimer::gflops() const
{
    std::vector<double> out;
    for (const Slot& s : slots_)
        out.push_back(median(s.g));
    return out;
}

std::vector<double>
timed_gflops(Result* res, NativeTimer& t, int samples,
             const std::string& label)
{
    try {
        for (int r = 0; r < samples; r++)
            t.sample();
        std::vector<double> g = t.gflops();
        for (size_t i = 0; i < g.size(); i++)
            std::cerr << "perfbench: " << label << " " << t.name(i) << " "
                      << g[i] << " GFLOP/s\n";
        return g;
    } catch (const std::exception& e) {
        res->failed += static_cast<long>(t.size());
        std::cerr << "perfbench: GFLOP/s measurement: " << e.what() << "\n";
        return {};
    }
}

}  // namespace perfbench
