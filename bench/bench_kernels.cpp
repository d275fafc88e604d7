// Microbenchmarks of the library's hot kernels (google-benchmark).
//
// These are engineering benchmarks, not paper claims: they size the
// Monte-Carlo budgets the C1..C13 benches can afford.
#include <benchmark/benchmark.h>

#include <numbers>

#include "channel/awgn.h"
#include "channel/mimo.h"
#include "common/rng.h"
#include "core/link.h"
#include "dsp/fft.h"
#include "dsp/simd.h"
#include "linalg/decompose.h"
#include "obs/perf.h"
#include "phy/cck.h"
#include "phy/convolutional.h"
#include "phy/ldpc.h"
#include "phy/modulation.h"
#include "phy/ofdm.h"
#include "phy/workspace.h"
#include "sim/scheduler.h"

namespace {

using namespace wlan;

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  CVec x(n);
  for (auto& v : x) v = rng.cgaussian(1.0);
  for (auto _ : state) {
    CVec y = x;
    dsp::fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(64)->Arg(128)->Arg(1024);

// The pre-plan radix-2 kernel: bit reversal computed per call and
// twiddles accumulated incrementally (w *= w_len). Kept here as the
// reference point for the FftPlan speedup (plans precompute both).
// Wrapped in the same "fft" span the production path carries, so the
// comparison matches what the old fft_inplace actually cost.
void naive_fft(CVec& x) {
  const obs::perf::ScopedSpan span("fft");
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j |= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -2.0 * std::numbers::pi / static_cast<double>(len);
    const Cplx wlen = std::polar(1.0, ang);
    for (std::size_t i = 0; i < n; i += len) {
      Cplx w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cplx u = x[i + k];
        const Cplx v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

void BM_FftNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  CVec x(n);
  for (auto& v : x) v = rng.cgaussian(1.0);
  for (auto _ : state) {
    CVec y = x;
    naive_fft(y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftNaive)->Arg(64)->Arg(128)->Arg(1024);

void BM_ViterbiDecode(benchmark::State& state) {
  const std::size_t n_info = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Bits info = rng.random_bits(n_info);
  for (std::size_t i = n_info - 6; i < n_info; ++i) info[i] = 0;
  const Bits coded = phy::convolutional_encode(info);
  RVec llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? -1.0 : 1.0;
  }
  for (auto _ : state) {
    Bits out = phy::viterbi_decode(llrs, true);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_info));
}
BENCHMARK(BM_ViterbiDecode)->Arg(1000)->Arg(8000);

void BM_LdpcDecode(benchmark::State& state) {
  const phy::LdpcCode code(648, 324, 11);
  Rng rng(3);
  const Bits info = rng.random_bits(324);
  const Bits cw = code.encode(info);
  RVec llrs(648);
  const double sigma = 0.8;
  for (std::size_t i = 0; i < 648; ++i) {
    llrs[i] = 2.0 * ((cw[i] ? -1.0 : 1.0) + sigma * rng.gaussian()) /
              (sigma * sigma);
  }
  std::int64_t iters = 0;
  for (auto _ : state) {
    auto out = code.decode(llrs, 40);
    iters += out.iterations;
    benchmark::DoNotOptimize(out.info.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 324);
  // Early-exit payoff: iterations actually spent vs the max budget of 40.
  state.counters["iters_per_block"] = benchmark::Counter(
      static_cast<double>(iters) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_LdpcDecode);

// Clean channel decisions: the pre-loop syndrome check exits after 0
// iterations, so this measures the floor cost of a decode call (one
// syndrome pass) — the common case well above the waterfall.
void BM_LdpcDecodeClean(benchmark::State& state) {
  const phy::LdpcCode code(648, 324, 11);
  Rng rng(3);
  const Bits info = rng.random_bits(324);
  const Bits cw = code.encode(info);
  RVec llrs(648);
  for (std::size_t i = 0; i < 648; ++i) llrs[i] = cw[i] ? -4.0 : 4.0;
  std::int64_t iters = 0;
  for (auto _ : state) {
    auto out = code.decode(llrs, 40);
    iters += out.iterations;
    benchmark::DoNotOptimize(out.info.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 324);
  state.counters["iters_per_block"] = benchmark::Counter(
      static_cast<double>(iters) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_LdpcDecodeClean);

void BM_CckDemodulate(benchmark::State& state) {
  const phy::CckModem modem(phy::CckRate::k11Mbps);
  Rng rng(4);
  const Bits bits = rng.random_bits(8 * 200);
  const CVec chips = modem.modulate(bits);
  for (auto _ : state) {
    Bits out = modem.demodulate(chips);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits.size()));
}
BENCHMARK(BM_CckDemodulate);

void BM_MmseDetectorSetup(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const auto h = channel::iid_rayleigh_matrix(rng, n, n);
  for (auto _ : state) {
    linalg::CMatrix gram = h.hermitian() * h;
    for (std::size_t i = 0; i < n; ++i) gram(i, i) += 0.1;
    linalg::CMatrix g = linalg::inverse(gram) * h.hermitian();
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_MmseDetectorSetup)->Arg(2)->Arg(4);

void BM_Svd4x4(benchmark::State& state) {
  Rng rng(6);
  const auto h = channel::iid_rayleigh_matrix(rng, 4, 4);
  for (auto _ : state) {
    auto dec = linalg::svd(h);
    benchmark::DoNotOptimize(dec.s.data());
  }
}
BENCHMARK(BM_Svd4x4);

void BM_OfdmPacket54(benchmark::State& state) {
  const phy::OfdmPhy phy(phy::OfdmMcs::k54Mbps);
  Rng rng(7);
  const Bytes psdu = rng.random_bytes(1000);
  for (auto _ : state) {
    CVec wave = phy.transmit(psdu);
    Bytes out = phy.receive(wave, psdu.size(), 1e-6);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8000);
}
BENCHMARK(BM_OfdmPacket54);

void BM_HtPacket2x2(benchmark::State& state) {
  phy::HtConfig cfg;
  cfg.mcs = 15;
  const phy::HtPhy phy(cfg);
  Rng rng(8);
  const Bytes psdu = rng.random_bytes(1000);
  const auto tones = phy.draw_channel(rng, channel::DelayProfile::kOffice);
  for (auto _ : state) {
    Bytes out = phy.simulate_link(psdu, tones, 40.0, rng);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8000);
}
BENCHMARK(BM_HtPacket2x2);

// Toggles the plan-level SIMD dispatch for one benchmark run and restores
// the previous setting on destruction. Arg(0) = scalar, Arg(1) = vector
// (a no-op downgrade to scalar on non-SIMD builds).
class ScopedSimd {
 public:
  explicit ScopedSimd(bool enabled) : prev_(dsp::simd::vector_enabled()) {
    dsp::simd::set_vector_enabled(enabled);
  }
  ~ScopedSimd() { dsp::simd::set_vector_enabled(prev_); }

 private:
  bool prev_;
};

// Max-log LLR demapper over one OFDM symbol of 64-QAM (48 tones, 288
// LLRs) with per-tone noise variances — the lane-per-subcarrier SIMD
// kernel vs its scalar reference.
void BM_DemapLlr(benchmark::State& state) {
  const ScopedSimd simd(state.range(0) != 0);
  Rng rng(9);
  CVec symbols(48);
  RVec nv(48);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = rng.cgaussian(1.0);
    nv[i] = 0.05 + 0.01 * static_cast<double>(i % 7);
  }
  RVec out(48 * 6);
  for (auto _ : state) {
    phy::demodulate_llr_to(symbols, phy::Modulation::kQam64, nv, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_DemapLlr)->Arg(0)->Arg(1);

// Viterbi branch-metric + ACS over the 64-state K=7 trellis — the
// sign-table SIMD kernel vs the scalar reference.
void BM_ViterbiAcs(benchmark::State& state) {
  const ScopedSimd simd(state.range(0) != 0);
  const std::size_t n_info = 1000;
  Rng rng(2);
  Bits info = rng.random_bits(n_info);
  for (std::size_t i = n_info - 6; i < n_info; ++i) info[i] = 0;
  const Bits coded = phy::convolutional_encode(info);
  RVec llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? -1.0 : 1.0;
  }
  phy::Workspace& ws = phy::tls_workspace();
  Bits out;
  for (auto _ : state) {
    phy::viterbi_decode_into(llrs, true, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_info));
}
BENCHMARK(BM_ViterbiAcs)->Arg(0)->Arg(1);

// Trial-batched Viterbi over a lane-major LLR block — `lanes` trials
// decoded in SIMD lockstep. Every lane carries the identical noisy
// block so the lane-count scaling isolates the kernel (per-lane
// difficulty variance is the macro benches' business); items processed
// counts info bits across all lanes, so items/s compares directly
// against BM_ViterbiDecode / BM_ViterbiAcs.
void BM_ViterbiBatch(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const std::size_t n_info = 1000;
  Rng rng(2);
  Bits info = rng.random_bits(n_info);
  for (std::size_t i = n_info - 6; i < n_info; ++i) info[i] = 0;
  const Bits coded = phy::convolutional_encode(info);
  RVec llrs_soa(coded.size() * lanes);
  Rng noise(21);
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const double v = (coded[i] ? -1.0 : 1.0) + 0.5 * noise.gaussian();
    for (std::size_t l = 0; l < lanes; ++l) llrs_soa[i * lanes + l] = v;
  }
  phy::Workspace& ws = phy::tls_workspace();
  Bits out_soa;
  for (auto _ : state) {
    phy::viterbi_decode_batch_into(llrs_soa, lanes, true, out_soa, ws);
    benchmark::DoNotOptimize(out_soa.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_info * lanes));
}
BENCHMARK(BM_ViterbiBatch)->Arg(1)->Arg(8)->Arg(16);

// Quantized int16 batched Viterbi — the saturating ACS fast path. Not
// bitwise against BM_ViterbiBatch (int8-scaled metrics); throughput is
// the point: more lanes per vector than the double path.
void BM_ViterbiBatchI16(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const std::size_t n_info = 1000;
  Rng rng(2);
  Bits info = rng.random_bits(n_info);
  for (std::size_t i = n_info - 6; i < n_info; ++i) info[i] = 0;
  const Bits coded = phy::convolutional_encode(info);
  RVec llrs_soa(coded.size() * lanes);
  Rng noise(21);
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const double v = (coded[i] ? -1.0 : 1.0) + 0.5 * noise.gaussian();
    for (std::size_t l = 0; l < lanes; ++l) llrs_soa[i * lanes + l] = v;
  }
  phy::Workspace& ws = phy::tls_workspace();
  Bits out_soa;
  for (auto _ : state) {
    phy::viterbi_decode_batch_i16_into(llrs_soa, lanes, true, 16.0, out_soa,
                                       ws);
    benchmark::DoNotOptimize(out_soa.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_info * lanes));
}
BENCHMARK(BM_ViterbiBatchI16)->Arg(8)->Arg(16);

// Layered min-sum LDPC decode at a noisy working point (several BP
// iterations per block) — vectorized check-node update vs scalar. The
// rate-5/6 code's wide check rows (degree 18) are where the lane-per-
// edge path engages; low-rate codes (degree ~6) dispatch to the
// branch-free scalar loop on both settings, so /0 and /1 would tie.
void BM_LdpcMinSum(benchmark::State& state) {
  const ScopedSimd simd(state.range(0) != 0);
  const phy::LdpcCode code(648, 540, 11);
  Rng rng(3);
  const Bits info = rng.random_bits(540);
  const Bits cw = code.encode(info);
  RVec llrs(648);
  const double sigma = 0.55;
  for (std::size_t i = 0; i < 648; ++i) {
    llrs[i] = 2.0 * ((cw[i] ? -1.0 : 1.0) + sigma * rng.gaussian()) /
              (sigma * sigma);
  }
  phy::Workspace& ws = phy::tls_workspace();
  phy::LdpcCode::DecodeResult res;
  std::int64_t iters = 0;
  for (auto _ : state) {
    code.decode_into(llrs, 40, 0.8, res, ws);
    iters += res.iterations;
    benchmark::DoNotOptimize(res.info.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 540);
  state.counters["iters_per_block"] = benchmark::Counter(
      static_cast<double>(iters) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_LdpcMinSum)->Arg(0)->Arg(1);

// Trial-batched layered min-sum at the same working point — `lanes`
// blocks in SIMD lockstep, every lane the identical noisy block (so
// the scaling isolates the kernel, not per-block iteration variance).
// Bitwise identical per lane to BM_LdpcMinSum's decode_into; items/s
// across lanes is the comparison.
void BM_LdpcMinSumBatch(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const phy::LdpcCode code(648, 540, 11);
  Rng rng(3);
  const Bits info = rng.random_bits(540);
  const Bits cw = code.encode(info);
  RVec llrs_soa(648 * lanes);
  const double sigma = 0.55;
  for (std::size_t i = 0; i < 648; ++i) {
    const double v = 2.0 * ((cw[i] ? -1.0 : 1.0) + sigma * rng.gaussian()) /
                     (sigma * sigma);
    for (std::size_t l = 0; l < lanes; ++l) llrs_soa[i * lanes + l] = v;
  }
  phy::Workspace& ws = phy::tls_workspace();
  std::vector<phy::LdpcCode::DecodeResult> res(lanes);
  for (auto _ : state) {
    code.decode_batch_into(llrs_soa, lanes, 40, 0.8, res, ws);
    benchmark::DoNotOptimize(res.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(540 * lanes));
}
BENCHMARK(BM_LdpcMinSumBatch)->Arg(1)->Arg(8)->Arg(16);

// Quantized int16 batched min-sum — the saturating fast path. Not
// bitwise against the double path (PER-delta gated in bench_diff).
void BM_LdpcMinSumBatchI16(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const phy::LdpcCode code(648, 540, 11);
  Rng rng(3);
  const Bits info = rng.random_bits(540);
  const Bits cw = code.encode(info);
  RVec llrs_soa(648 * lanes);
  const double sigma = 0.55;
  for (std::size_t i = 0; i < 648; ++i) {
    const double v = 2.0 * ((cw[i] ? -1.0 : 1.0) + sigma * rng.gaussian()) /
                     (sigma * sigma);
    for (std::size_t l = 0; l < lanes; ++l) llrs_soa[i * lanes + l] = v;
  }
  phy::Workspace& ws = phy::tls_workspace();
  std::vector<phy::LdpcCode::DecodeResult> res(lanes);
  for (auto _ : state) {
    code.decode_batch_i16_into(llrs_soa, lanes, 40, 0.8, 4.0, res, ws);
    benchmark::DoNotOptimize(res.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(540 * lanes));
}
BENCHMARK(BM_LdpcMinSumBatchI16)->Arg(8)->Arg(16);

// Full OFDM TX -> AWGN -> RX round trip through the leased-workspace
// API — the zero-steady-state-allocation path the Monte-Carlo trial
// bodies use. ws_bytes reports the arena's retained capacity.
void BM_OfdmRoundTripWorkspace(benchmark::State& state) {
  const phy::OfdmPhy phy(phy::OfdmMcs::k54Mbps);
  Rng rng(7);
  phy::Workspace& ws = phy::tls_workspace();
  auto psdu = ws.bits(1000);
  rng.fill_bytes(*psdu);
  CVec wave;
  Bytes out;
  for (auto _ : state) {
    phy.transmit_into(*psdu, wave, ws);
    channel::add_awgn(wave, rng, 1e-6);
    phy.receive_into(wave, psdu->size(), 1e-6, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8000);
  state.counters["ws_bytes"] =
      benchmark::Counter(static_cast<double>(ws.capacity_bytes()));
}
BENCHMARK(BM_OfdmRoundTripWorkspace);

// Event-queue churn: the queue is held at a fixed depth (64, 4096)
// while each iteration runs the earliest event, which schedules its
// successor with a 32-byte capture — the size of the netsim engine's
// largest actions. Time per iteration is the scheduler's cost per event
// (pop + dispatch + push), the event-queue layer of a netsim run.
struct ChurnEvent {
  sim::Scheduler* sched;
  Rng* rng;
  std::uint64_t* fired;
  double mean_gap_s;
  void operator()() const {
    ++*fired;
    sched->schedule(2.0 * mean_gap_s * rng->uniform(), *this);
  }
};

void BM_SchedulerChurn(benchmark::State& state) {
  static_assert(sizeof(ChurnEvent) == 32);
  sim::Scheduler sched;
  Rng rng(7);
  std::uint64_t fired = 0;
  const ChurnEvent event{&sched, &rng, &fired, 1e-4};
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    sched.schedule(2.0 * event.mean_gap_s * rng.uniform(), event);
  }
  for (auto _ : state) {
    sched.run_until(sched.next_time());
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
  state.counters["ns_per_event"] = benchmark::Counter(
      static_cast<double>(fired) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SchedulerChurn)->Arg(64)->Arg(4096);

// Observability overhead floors. Disabled = the cost every kernel call
// pays when profiling is off (one thread-local load + branch); enabled
// = the full enter/record/exit path. These bound what instrumenting a
// hot loop costs before any kernel work happens.
void BM_ScopedSpanDisabled(benchmark::State& state) {
  obs::perf::disable_span_profiling();
  for (auto _ : state) {
    const obs::perf::ScopedSpan span("overhead");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ScopedSpanDisabled);

void BM_ScopedSpanEnabled(benchmark::State& state) {
  obs::perf::SpanProfile profile;
  obs::perf::enable_span_profiling(profile);
  for (auto _ : state) {
    const obs::perf::ScopedSpan span("overhead");
    benchmark::DoNotOptimize(&span);
  }
  obs::perf::disable_span_profiling();
}
BENCHMARK(BM_ScopedSpanEnabled);

}  // namespace

BENCHMARK_MAIN();
