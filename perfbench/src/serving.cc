// Workloads `serve_lookup` and `serve_compute`: an in-process
// serve::QueryService with one event loop (the policy_queryd default),
// driven closed-loop by serve::BlockingClient connections.  Every reply
// must be byte-equal to serve::answer computed directly in set-up.
//
// serve_lookup sends only lookup kinds (server_info, sa_prevalence,
// causes, homing), kLookupBlock requests per round.  A generator thread
// runs one daemon-style refresh per round, triggered when an eighth of the
// round's requests have completed: build_snapshot over the store the
// set-up filled, at threads=1, then publish.
//
//   round_s     wall time of the kLookupBlock requests (lookup_qps)
//   main_op_ms  median request latency (lookup_p50_us)
//   side_op_ms  median refresh time, build_snapshot plus publish
//
// serve_compute sends only compute kinds: path_availability for every
// looking-glass vantage, rerun_infer over fixed GaoParams and
// what_if_failure over seed-chosen failures, each with a 32-prefix filter.
// One client sends the list; a round is one pass.  No refreshes.
//
//   round_s     one pass (compute_qps)
//   main_op_ms  median rerun_infer latency (median of per-round medians)
//   side_op_ms  median what_if_failure latency (likewise)
//
// Before each serve_compute request the event loop is pinned to the next
// CPU in turn.  The vCPUs of a shared host differ in speed from minute to
// minute, and an unpinned loop stays on whichever CPU it woke on, so a run
// read fast or slow by where it landed.  Rotating per request gives every
// round's median samples from all CPUs, as the multi-threaded workloads
// get by themselves.  In ten interleaved pairs against an unpinned build
// it cut the spread of main_op_ms from 0.27 to 0.12 and of side_op_ms from
// 0.26 to 0.07, medians unchanged.  The loop runs the same code either way.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <thread>

#include "common.h"
#include "core/artifact_store.h"
#include "serve/client.h"
#include "serve/query.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace perfbench {

namespace bg = bgpolicy;
using bg::serve::QueryKind;

namespace {

/// Closed-loop clients of serve_lookup.  serve_compute uses one: a second
/// client on the single event loop would queue each compute request behind
/// the other client's, so its latency would measure the request order.
constexpr std::size_t kLookupClients = 2;
/// Requests per serve_lookup round (both clients together).
constexpr std::size_t kLookupBlock = 120'000;
constexpr std::size_t kHomingPrefixes = 32;
constexpr std::size_t kWhatIfRequests = 32;
constexpr std::size_t kWhatIfPrefixes = 32;
/// Byte offset of the u64 snapshot version in a server_info reply (after
/// the status byte); set-up verifies it against serve::answer.
constexpr std::size_t kVersionOffset = 1;

struct Request {
  QueryKind kind = QueryKind::kServerInfo;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> expected;
};

/// One set-up: the registry and service serving a published snapshot, the
/// request list with expected replies, and (serve_lookup) the store the
/// refreshes decode from.  Members are destroyed bottom-up: the service
/// stops before the registry it reads goes away.
struct Served {
  std::unique_ptr<bg::core::ArtifactStore> store;
  std::string analyses_digest;
  std::vector<Request> requests;
  double what_if_warm_s = 0;
  double wave_events = 0;
  bg::serve::SnapshotRegistry registry;
  std::unique_ptr<bg::serve::QueryService> service;
  /// Thread ids the service started (its event loop).
  std::vector<int> loop_threads;
};

/// Fisher-Yates with a fixed generator, so the order depends on the seed
/// alone.
template <typename T>
void shuffle(std::vector<T>& items, std::mt19937_64& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng() % i]);
  }
}

std::vector<std::uint8_t> with_version(std::vector<std::uint8_t> reply,
                                       std::uint64_t version) {
  std::memcpy(reply.data() + kVersionOffset, &version, sizeof(version));
  return reply;
}

std::uint64_t version_of(const std::vector<std::uint8_t>& reply) {
  std::uint64_t version = 0;
  if (reply.size() >= kVersionOffset + sizeof(version)) {
    std::memcpy(&version, reply.data() + kVersionOffset, sizeof(version));
  }
  return version;
}

std::vector<Request> lookup_requests(const bg::serve::Snapshot& snapshot,
                                     std::mt19937_64& rng) {
  std::vector<Request> out;
  out.push_back({QueryKind::kServerInfo,
                 bg::serve::encode_server_info_request(), {}});
  for (const bg::core::VantageAnalysis& v : snapshot.analyses.vantages) {
    out.push_back(
        {QueryKind::kSaPrevalence, bg::serve::encode_as_request(v.vantage),
         {}});
    out.push_back(
        {QueryKind::kCauses, bg::serve::encode_as_request(v.vantage), {}});
  }
  const bg::core::PathIndex& paths = snapshot.observations.paths;
  for (std::size_t i = 0; i < kHomingPrefixes && paths.path_count() > 0; ++i) {
    out.push_back({QueryKind::kHoming,
                   bg::serve::encode_prefix_request(
                       paths.prefix_at(rng() % paths.path_count())),
                   {}});
  }
  return out;
}

std::vector<Request> compute_requests(const bg::serve::Snapshot& snapshot,
                                      std::mt19937_64& rng) {
  std::vector<Request> out;
  std::vector<bg::util::AsNumber> vantages;
  for (const auto& [vantage, table] : snapshot.sim.sim.looking_glass) {
    vantages.push_back(vantage);
  }
  std::sort(vantages.begin(), vantages.end());
  for (const bg::util::AsNumber vantage : vantages) {
    out.push_back({QueryKind::kPathAvailability,
                   bg::serve::encode_as_request(vantage), {}});
  }
  // Sixteen variants (Gao's R × the clique threshold), so each round's
  // rerun_infer median rests on 16 samples.
  for (const double ratio : {30.0, 45.0, 60.0, 120.0}) {
    for (const double clique : {0.1, 0.2, 0.3, 0.4}) {
      bg::asrel::GaoParams params;
      params.peer_degree_ratio = ratio;
      params.clique_degree_fraction = clique;
      out.push_back({QueryKind::kRerunInfer,
                     bg::serve::encode_infer_request(params), {}});
    }
  }
  // What-if: fail the vantage's session to one neighbor plus one session
  // elsewhere, and ask about a fixed-size prefix filter.
  const bg::core::GroundTruth& truth = *snapshot.truth;
  const auto& graph = truth.topo.graph;
  const auto ases = graph.ases();
  const auto random_edge = [&](bg::util::AsNumber as) {
    const auto neighbors = graph.neighbors(as);
    return std::make_pair(as, neighbors[rng() % neighbors.size()].as);
  };
  for (std::size_t q = 0; q < kWhatIfRequests; ++q) {
    const bg::util::AsNumber vantage = vantages[rng() % vantages.size()];
    bg::util::AsNumber other = ases[rng() % ases.size()];
    while (graph.neighbors(other).empty()) other = ases[rng() % ases.size()];
    const std::vector<std::pair<bg::util::AsNumber, bg::util::AsNumber>>
        edges = {random_edge(vantage), random_edge(other)};
    std::vector<bg::bgp::Prefix> prefixes;
    while (prefixes.size() <
           std::min(kWhatIfPrefixes, truth.originations.size())) {
      const bg::bgp::Prefix& prefix =
          truth.originations[rng() % truth.originations.size()].prefix;
      if (std::find(prefixes.begin(), prefixes.end(), prefix) ==
          prefixes.end()) {
        prefixes.push_back(prefix);
      }
    }
    out.push_back({QueryKind::kWhatIfFailure,
                   bg::serve::encode_what_if_request(vantage, edges, prefixes),
                   {}});
  }
  return out;
}

/// Builds, checks and publishes a snapshot and starts the service.
std::unique_ptr<Served> set_up(Context& ctx, bool lookup) {
  auto served = std::make_unique<Served>();
  bg::core::RunOptions options;
  options.threads = kThreads;
  bg::core::StageTrace stage_trace;
  if (ctx.tracer.enabled()) options.trace = &stage_trace;
  if (lookup) {
    // The refreshes decode from this store; filling it is set-up work.
    served->store = std::make_unique<bg::core::ArtifactStore>(
        ctx.scratch_dir("serve-store"));
    options.store = served->store.get();
  }
  std::shared_ptr<bg::serve::Snapshot> snapshot;
  {
    const auto span = ctx.tracer.span("build_snapshot");
    snapshot = bg::serve::build_snapshot(ctx.scenario, options);
    ctx.tracer.import(stage_trace, 0);
    if (ctx.tracer.enabled()) stage_layers(ctx, stage_trace, 0);
  }
  served->analyses_digest = snapshot->analyses_digest;

  std::mt19937_64 rng(ctx.args.seed);
  served->requests = lookup ? lookup_requests(*snapshot, rng)
                            : compute_requests(*snapshot, rng);
  shuffle(served->requests, rng);
  {
    const auto span = ctx.tracer.span("expected_replies");
    std::vector<Request>& requests = served->requests;
    for (Request& request : requests) {
      if (request.kind != QueryKind::kServerInfo) continue;
      snapshot->version = 2;
      const auto at_two =
          bg::serve::answer(request.kind, request.payload, *snapshot);
      snapshot->version = 1;
      request.expected =
          bg::serve::answer(request.kind, request.payload, *snapshot);
      ctx.report.check(with_version(request.expected, 2) == at_two,
                       "server_info version sits at its expected offset");
    }
    // The pure kinds are answered on helper threads.  What-if requests are
    // answered in order on this thread: the first answer converges the
    // base states it touches, and concurrent queries could converge one
    // origination twice.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> helpers;
    for (std::size_t t = 1; t < kThreads; ++t) {
      helpers.emplace_back([&] {
        for (std::size_t i = next++; i < requests.size(); i = next++) {
          Request& request = requests[i];
          if (request.kind == QueryKind::kServerInfo ||
              request.kind == QueryKind::kWhatIfFailure) {
            continue;
          }
          request.expected =
              bg::serve::answer(request.kind, request.payload, *snapshot);
        }
      });
    }
    const auto start = Clock::now();
    for (Request& request : requests) {
      if (request.kind != QueryKind::kWhatIfFailure) continue;
      request.expected =
          bg::serve::answer(request.kind, request.payload, *snapshot);
      const auto view = bg::serve::split_response(request.expected);
      if (const auto result =
              view ? bg::serve::decode_what_if(view->body) : std::nullopt) {
        served->wave_events += static_cast<double>(result->wave_events);
      }
    }
    served->what_if_warm_s = seconds_since(start);
    for (std::thread& helper : helpers) helper.join();
    for (const Request& request : requests) {
      const auto view = bg::serve::split_response(request.expected);
      ctx.report.check(view && view->status == bg::serve::QueryStatus::kOk,
                       std::string("direct answer of ") +
                           bg::serve::to_string(request.kind) + " is ok");
    }
  }
  if (ctx.args.corrupt_expected) served->requests.back().expected.back() ^= 1;

  served->registry.publish(std::move(snapshot));
  bg::serve::ServiceConfig config;
  config.threads = 1;
  served->service =
      std::make_unique<bg::serve::QueryService>(served->registry, config);
  const std::vector<int> before = thread_ids();
  served->service->start();
  for (const int tid : thread_ids()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      served->loop_threads.push_back(tid);
    }
  }
  return served;
}

struct ClientResult {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;
  std::vector<QueryKind> kinds;
};

/// One closed-loop client: sends `count` requests starting at `offset` in
/// the list, checking every reply.  `before_request(i)`, when set, runs
/// before the i-th request is sent, outside its timed interval.
void drive_client(Context& ctx, const Served& served, std::size_t offset,
                  std::size_t count, std::uint64_t group,
                  std::atomic<std::uint64_t>& completed, ClientResult& result,
                  const std::function<void(std::size_t)>& before_request = {}) {
  const std::vector<Request>& requests = served.requests;
  result.latency_us.reserve(count);
  result.kinds.reserve(count);
  std::uint64_t last_version = 0;
  try {
    bg::serve::BlockingClient client(served.service->port(),
                                     std::chrono::milliseconds(60'000));
    for (std::size_t i = 0; i < count; ++i) {
      const Request& request = requests[(offset + i) % requests.size()];
      // Per-request spans on every 16th request bound the trace's size.
      std::optional<Tracer::Span> span;
      if (ctx.tracer.enabled() && (i & 15) == 0) {
        span.emplace(&ctx.tracer,
                     std::string("request.") +
                         bg::serve::to_string(request.kind),
                     group * 1'000'000 + i);
      }
      if (before_request) before_request(i);
      const auto start = Clock::now();
      const std::optional<bg::serve::Frame> reply = client.call(
          static_cast<std::uint16_t>(request.kind), request.payload);
      result.latency_us.push_back(seconds_since(start) * 1e6);
      result.kinds.push_back(request.kind);
      ++result.sent;
      bool ok = reply.has_value() &&
                reply->kind == (static_cast<std::uint16_t>(request.kind) |
                                bg::serve::kResponseBit);
      if (ok && request.kind == QueryKind::kServerInfo) {
        const std::uint64_t version = version_of(reply->payload);
        ok = version >= std::max<std::uint64_t>(last_version, 1) &&
             reply->payload == with_version(request.expected, version);
        last_version = version;
      } else if (ok) {
        ok = reply->payload == request.expected;
      }
      if (!ok) ++result.failed;
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const std::exception& error) {
    result.failed += count - result.sent;
    result.sent = count;
    ctx.report.check(false, std::string("client: ") + error.what());
  }
}

/// Runs kLookupClients clients for one round; `count` requests each,
/// client c starting at offsets[c].
void run_clients(Context& ctx, const Served& served,
                 const std::vector<std::size_t>& offsets, std::size_t count,
                 std::size_t round, std::atomic<std::uint64_t>& completed,
                 std::vector<ClientResult>& results) {
  results.assign(kLookupClients, {});
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kLookupClients; ++c) {
    clients.emplace_back([&, c] {
      drive_client(ctx, served, offsets[c], count, round * kLookupClients + c,
                   completed, results[c]);
    });
  }
  for (std::thread& client : clients) client.join();
}

void tally(Context& ctx, const std::vector<ClientResult>& results) {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  for (const ClientResult& result : results) {
    sent += result.sent;
    failed += result.failed;
  }
  ctx.report.tally(sent, failed, "socket replies byte-equal to serve::answer");
}

/// Median time of direct serve::answer calls per kind over the request
/// list, each request answered `reps` times.
std::map<QueryKind, double> direct_answer_s(const Served& served, int reps) {
  const auto snapshot = served.registry.current();
  std::map<QueryKind, std::vector<double>> samples;
  for (const Request& request : served.requests) {
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      (void)bg::serve::answer(request.kind, request.payload, *snapshot);
      samples[request.kind].push_back(seconds_since(start));
    }
  }
  std::map<QueryKind, double> out;
  for (auto& [kind, times] : samples) out[kind] = median(times);
  return out;
}

void loop_layers(Context& ctx, const Served& served) {
  const bg::serve::EventLoopStats stats = served.service->stats();
  ctx.layer("serve.loop.accepted", static_cast<double>(stats.accepted));
  ctx.layer("serve.loop.closed", static_cast<double>(stats.closed));
  ctx.layer("serve.loop.frames_in", static_cast<double>(stats.frames_in));
  ctx.layer("serve.loop.frames_out", static_cast<double>(stats.frames_out));
  ctx.layer("serve.loop.malformed_closes",
            static_cast<double>(stats.malformed_closes));
  ctx.layer("serve.loop.read_pauses", static_cast<double>(stats.read_pauses));
  ctx.layer("serve.loop.accept_pauses",
            static_cast<double>(stats.accept_pauses));
}

}  // namespace

void run_serve_lookup(Context& ctx) {
  double setup_s = 0;
  const auto served = repeat_setup<Served>(
      ctx, setup_s, [&] { return set_up(ctx, /*lookup=*/true); });

  const std::size_t per_client = kLookupBlock / kLookupClients;
  const std::size_t n = served->requests.size();
  std::vector<double> latency_us;
  std::vector<double> refresh_ms;
  std::vector<ClientResult> results;
  const auto rounds = timed_phase(ctx, kMinRounds, [&](std::size_t r) {
    std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> clients_done{false};
    double round_refresh_ms = 0;
    double round_publish_us = 0;
    // The generator: one refresh once an eighth of the round completed.
    std::thread refresher([&] {
      while (completed.load(std::memory_order_relaxed) < kLookupBlock / 8 &&
             !clients_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      try {
        const auto span = ctx.tracer.span("refresh", r);
        const auto start = Clock::now();
        bg::core::RunOptions options;
        options.threads = 1;
        options.store = served->store.get();
        std::shared_ptr<bg::serve::Snapshot> fresh;
        {
          const auto build = ctx.tracer.span("build_snapshot", r);
          fresh = bg::serve::build_snapshot(ctx.scenario, options);
        }
        ctx.report.check(fresh->analyses_digest == served->analyses_digest,
                         "refreshed snapshot serves the same analyses");
        const auto publish_start = Clock::now();
        {
          const auto publish = ctx.tracer.span("publish", r);
          served->registry.publish(std::move(fresh));
        }
        round_publish_us = seconds_since(publish_start) * 1e6;
        round_refresh_ms = seconds_since(start) * 1e3;
      } catch (const std::exception& error) {
        ctx.report.check(false, std::string("refresh: ") + error.what());
      }
    });
    run_clients(ctx, *served, {(r * 7) % n, (r * 7 + n / 2) % n}, per_client,
                r, completed, results);
    clients_done.store(true);
    refresher.join();
    tally(ctx, results);
    ctx.layer("serve.refresh_s", round_refresh_ms / 1e3);
    ctx.layer("serve.publish_us", round_publish_us);
    if (ctx.tracer.enabled()) return;
    refresh_ms.push_back(round_refresh_ms);
    for (const ClientResult& result : results) {
      latency_us.insert(latency_us.end(), result.latency_us.begin(),
                        result.latency_us.end());
    }
  });

  if (ctx.args.trace) {
    const auto span = ctx.tracer.span("probe.answers");
    const std::map<QueryKind, double> direct = direct_answer_s(*served, 50);
    std::vector<double> per_request;
    for (const auto& [kind, seconds] : direct) {
      ctx.layer(std::string("serve.answer_us.") + bg::serve::to_string(kind),
                seconds * 1e6);
    }
    for (const Request& request : served->requests) {
      per_request.push_back(direct.at(request.kind) * 1e6);
    }
    const double roundtrip = median(latency_us);
    ctx.layer("serve.roundtrip_us", roundtrip);
    ctx.layer("serve.transport_us", roundtrip - median(per_request));
    ctx.layer("serve.lookup_p99_us", quantile(latency_us, 0.99));
    const auto current = served->registry.current();
    const auto start = Clock::now();
    const auto copy = std::make_shared<bg::serve::Snapshot>(*current);
    ctx.layer("serve.snapshot_copy_s", seconds_since(start));
    loop_layers(ctx, *served);
  }

  ctx.end_to_end["setup_s"] = setup_s;
  ctx.end_to_end["round_s"] = median(rounds);
  ctx.end_to_end["main_op_ms"] = median(latency_us) / 1e3;
  ctx.end_to_end["side_op_ms"] = median(refresh_ms);
  ctx.note("rounds", static_cast<double>(rounds.size()), "");
  ctx.note("lookup_qps", static_cast<double>(kLookupBlock) / median(rounds),
           "1/s");
  ctx.note("lookup_p50_us", median(latency_us), "us");
  ctx.note("lookup_p99_us", quantile(latency_us, 0.99), "us");
  ctx.note("latency_samples", static_cast<double>(latency_us.size()), "");
}

void run_serve_compute(Context& ctx) {
  double setup_s = 0;
  const auto served = repeat_setup<Served>(
      ctx, setup_s, [&] { return set_up(ctx, /*lookup=*/false); });

  std::map<QueryKind, std::vector<double>> latency_ms;
  std::vector<double> all_ms;
  // Per-round medians of the two end-to-end kinds.
  std::vector<double> rerun_ms;
  std::vector<double> what_if_ms;
  std::vector<ClientResult> results(1);
  const std::size_t n = served->requests.size();
  const std::vector<int> cpus = allowed_cpus();
  const auto rotate_loop = [&](std::size_t i) {
    for (const int tid : served->loop_threads) {
      pin_thread(tid, cpus[i % cpus.size()]);
    }
  };
  const auto rounds = timed_phase(ctx, kMinRounds, [&](std::size_t r) {
    std::atomic<std::uint64_t> completed{0};
    results.assign(1, {});
    drive_client(ctx, *served, 0, n, r, completed, results[0],
                 cpus.empty() ? std::function<void(std::size_t)>{}
                              : std::function<void(std::size_t)>(rotate_loop));
    tally(ctx, results);
    if (ctx.tracer.enabled()) return;
    std::map<QueryKind, std::vector<double>> round_ms;
    for (std::size_t i = 0; i < results[0].kinds.size(); ++i) {
      const double ms = results[0].latency_us[i] / 1e3;
      round_ms[results[0].kinds[i]].push_back(ms);
      latency_ms[results[0].kinds[i]].push_back(ms);
      all_ms.push_back(ms);
    }
    rerun_ms.push_back(median(round_ms[QueryKind::kRerunInfer]));
    what_if_ms.push_back(median(round_ms[QueryKind::kWhatIfFailure]));
  });
  if (ctx.args.trace) {
    const auto span = ctx.tracer.span("probe.answers");
    for (const auto& [kind, seconds] : direct_answer_s(*served, 1)) {
      ctx.layer(std::string("serve.answer_ms.") + bg::serve::to_string(kind),
                seconds * 1e3);
    }
    ctx.layer("serve.compute_p90_ms", quantile(all_ms, 0.9));
    ctx.layer("whatif.wave_events", served->wave_events);
    ctx.layer("whatif.warm_s", served->what_if_warm_s);
    loop_layers(ctx, *served);
  }

  ctx.end_to_end["setup_s"] = setup_s;
  ctx.end_to_end["round_s"] = median(rounds);
  ctx.end_to_end["main_op_ms"] = median(rerun_ms);
  ctx.end_to_end["side_op_ms"] = median(what_if_ms);
  ctx.note("rounds", static_cast<double>(rounds.size()), "");
  for (std::size_t r = 0; r < rerun_ms.size(); ++r) {
    ctx.note("round[" + std::to_string(r) + "].rerun_ms", rerun_ms[r], "ms");
  }
  ctx.note("compute_qps", static_cast<double>(n) / median(rounds), "1/s");
  ctx.note("compute_p50_ms", median(all_ms), "ms");
  ctx.note("compute_p90_ms", quantile(all_ms, 0.9), "ms");
  for (const auto& [kind, samples] : latency_ms) {
    ctx.note(std::string("p50_ms.") + bg::serve::to_string(kind),
             median(samples), "ms");
    ctx.note(std::string("samples.") + bg::serve::to_string(kind),
             static_cast<double>(samples.size()), "");
  }
}

}  // namespace perfbench
