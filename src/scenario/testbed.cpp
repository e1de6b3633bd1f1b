#include "scenario/testbed.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace w11::scenario {

namespace {
constexpr double kPi = 3.14159265358979323846;

// `name`.{count,sum,mean,p50,p95,max} of one sample set, with its exact
// values.
void snapshot_samples(const std::string& name, const Samples& s,
                      obs::MetricsRegistry& reg) {
  double sum = 0.0;
  for (double x : s.sorted()) sum += x;
  reg.set(name + ".count", static_cast<double>(s.count()));
  reg.set(name + ".sum", sum);
  reg.set(name + ".mean", s.mean());
  reg.set(name + ".p50", s.empty() ? 0.0 : s.quantile(0.5));
  reg.set(name + ".p95", s.empty() ? 0.0 : s.quantile(0.95));
  reg.set(name + ".max", s.empty() ? 0.0 : s.max());
}

// The W11_TRACE metrics dump: a snapshot of one run's AP and FastACK Stats.
void snapshot_stats(const Testbed& tb, int n_aps, obs::MetricsRegistry& reg) {
  Samples bundles;
  Samples frames;
  fastack::FlowStats fa;
  for (int i = 0; i < n_aps; ++i) {
    bundles.add_all(tb.ap(i).stats().ampdu_bundles.sorted());
    frames.add_all(tb.ap(i).stats().ampdu_frames.sorted());
    if (const fastack::FastAckAgent* a = tb.agent(i)) {
      fa.fast_acks_sent += a->stats().fast_acks_sent;
      fa.client_acks_suppressed += a->stats().client_acks_suppressed;
      fa.local_retransmits += a->stats().local_retransmits;
      fa.window_updates_sent += a->stats().window_updates_sent;
      fa.hole_dupacks_sent += a->stats().hole_dupacks_sent;
      fa.bypass_activations += a->stats().bypass_activations;
    }
  }
  snapshot_samples("mac.ampdu_bundles", bundles, reg);
  snapshot_samples("mac.ampdu_frames", frames, reg);
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"fastack.acks_synthesized", fa.fast_acks_sent},
      {"fastack.acks_suppressed", fa.client_acks_suppressed},
      {"fastack.cache_served_segments", fa.local_retransmits},
      {"fastack.window_updates", fa.window_updates_sent},
      {"fastack.hole_dupacks", fa.hole_dupacks_sent},
      {"fastack.bypass_activations", fa.bypass_activations}};
  for (const auto& [name, v] : counts) reg.set(name, static_cast<double>(v));
}
}  // namespace

Testbed::Testbed(TestbedConfig cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  W11_CHECK(cfg_.n_aps >= 1);
  W11_CHECK(cfg_.n_clients_per_ap >= 1);
  medium_ = std::make_unique<mac::Medium>(sim_, cfg_.medium, rng_.fork());

  auto accel_of = [&](int ap_idx) -> TcpAccel {
    if (!cfg_.accel.empty()) {
      return cfg_.accel.size() == 1
                 ? cfg_.accel.front()
                 : cfg_.accel.at(static_cast<std::size_t>(ap_idx));
    }
    if (cfg_.fastack.empty()) return TcpAccel::kNone;
    const bool fa = cfg_.fastack.size() == 1
                        ? cfg_.fastack.front()
                        : cfg_.fastack.at(static_cast<std::size_t>(ap_idx));
    return fa ? TcpAccel::kFastAck : TcpAccel::kNone;
  };

  std::uint32_t next_station = 0;
  std::uint32_t next_flow = 0;

  for (int a = 0; a < cfg_.n_aps; ++a) {
    // APs are spaced 15 m apart on a line — close enough to share the
    // collision domain, like the two-AP deployment of §5.6.3.
    AccessPoint::Config ap_cfg;
    ap_cfg.id = ApId{static_cast<std::uint32_t>(a)};
    ap_cfg.pos = Position{15.0 * a, 0.0};
    ap_cfg.channel = cfg_.channel;
    ap_cfg.prop = cfg_.prop;
    ap_cfg.rate_control = cfg_.rate_control;
    ap_cfg.bad_hint_rate = cfg_.bad_hint_rate;
    ap_cfg.rts_protected = cfg_.medium.rts_cts;
    ap_cfg.amsdu_max_msdus = cfg_.amsdu_max_msdus;
    auto ap = std::make_unique<AccessPoint>(sim_, *medium_, ap_cfg, rng_.fork());

    switch (accel_of(a)) {
      case TcpAccel::kFastAck:
        agents_.push_back(
            std::make_unique<fastack::FastAckAgent>(sim_, *ap, cfg_.agent));
        snoop_agents_.push_back(nullptr);
        ap->set_interceptor(agents_.back().get());
        break;
      case TcpAccel::kSnoop:
        agents_.push_back(nullptr);
        snoop_agents_.push_back(
            std::make_unique<snoop::SnoopAgent>(sim_, *ap));
        ap->set_interceptor(snoop_agents_.back().get());
        break;
      case TcpAccel::kNone:
        agents_.push_back(nullptr);
        snoop_agents_.push_back(nullptr);
        break;
    }

    // Wired path: sender host <-> AP, one duplex GbE link pair per AP.
    AccessPoint* ap_raw = ap.get();
    down_links_.push_back(std::make_unique<WiredLink>(
        sim_, cfg_.wire, [ap_raw](TcpSegment seg) { ap_raw->wire_in(std::move(seg)); }));

    up_links_.push_back(std::make_unique<WiredLink>(
        sim_, cfg_.wire, [this](TcpSegment seg) {
          // Route the ACK to its sender by flow id.
          const std::size_t idx = seg.flow.value();
          if (idx < flows_.size() && flows_[idx].sender) {
            flows_[idx].sender->on_ack(seg);
          }
        }));
    WiredLink* up_raw = up_links_.back().get();
    ap->set_wire_out([up_raw](TcpSegment seg) { up_raw->send(std::move(seg)); });

    // Symmetric cells re-draw the same placement sequence for every AP.
    Rng cell_rng = cfg_.symmetric_cells ? Rng(cfg_.seed * 7919 + 13) : rng_.fork();
    for (int c = 0; c < cfg_.n_clients_per_ap; ++c) {
      // Even angular spread, uniform-area radial distance.
      const double angle = 2.0 * kPi * c / cfg_.n_clients_per_ap +
                           cell_rng.uniform(0.0, 0.3);
      const double r2min = cfg_.client_min_dist_m * cfg_.client_min_dist_m;
      const double r2max = cfg_.client_max_dist_m * cfg_.client_max_dist_m;
      const double dist = std::sqrt(cell_rng.uniform(r2min, r2max));

      ClientStation::Config cc;
      cc.id = StationId{next_station++};
      cc.pos = Position{ap_cfg.pos.x + dist * std::cos(angle),
                        ap_cfg.pos.y + dist * std::sin(angle)};
      cc.receiver = cfg_.receiver;
      auto client = std::make_unique<ClientStation>(sim_, *medium_, cc, rng_.fork());
      ap->associate(client.get());

      FlowCtx fc;
      fc.flow = FlowId{next_flow++};
      fc.ap_idx = a;
      fc.client_idx = c;

      if (cfg_.traffic == TrafficType::kTcpDownlink) {
        client->add_flow(fc.flow);
        TcpSender::Config scfg = cfg_.sender;
        if (cfg_.dscp_of != nullptr) scfg.dscp = cfg_.dscp_of(c);
        // Route dynamically through the flow's *current* AP so roams
        // redirect the wired path too (the distribution switch re-learns).
        const std::size_t idx = flows_.size();
        fc.sender = std::make_unique<TcpSender>(
            sim_, fc.flow, cc.id, scfg, [this, idx](TcpSegment seg) {
              down_links_[static_cast<std::size_t>(flows_[idx].ap_idx)]->send(
                  std::move(seg));
            });
      } else {
        ap->enable_udp_saturation(cc.id, Bytes{1470});
      }

      clients_.push_back(std::move(client));
      flows_.push_back(std::move(fc));
    }
    aps_.push_back(std::move(ap));
  }
}

Testbed::~Testbed() = default;

void Testbed::roam(int orig_ap_idx, int client_idx, int to_ap_idx) {
  // (orig_ap_idx, client_idx) is the client's permanent identity — where it
  // was created; it roams from wherever it currently is.
  const std::size_t idx = flow_index(orig_ap_idx, client_idx);
  FlowCtx& fc = flows_.at(idx);
  const int from_ap_idx = fc.ap_idx;
  if (from_ap_idx == to_ap_idx) return;
  ClientStation* cl = clients_.at(idx).get();

  aps_.at(static_cast<std::size_t>(from_ap_idx))->disassociate(cl->id());
  aps_.at(static_cast<std::size_t>(to_ap_idx))->associate(cl);
  fc.ap_idx = to_ap_idx;

  // FastACK state transfer (§5.5.4) when both ends run the agent.
  auto& from_agent = agents_.at(static_cast<std::size_t>(from_ap_idx));
  auto& to_agent = agents_.at(static_cast<std::size_t>(to_ap_idx));
  if (from_agent && to_agent) {
    if (auto state = from_agent->export_flow(fc.flow))
      to_agent->import_flow(fc.flow, std::move(*state));
  }
}

void Testbed::crash_ap(int ap_idx) {
  AccessPoint& ap = *aps_.at(static_cast<std::size_t>(ap_idx));
  // Reboot: the AP forgets its queues and associations; clients re-scan and
  // re-associate (instantaneous here — the TCP-level damage, lost frames
  // plus lost FastACK state, is what we model).
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].ap_idx != ap_idx) continue;
    ap.disassociate(clients_[i]->id());
    ap.associate(clients_[i].get());
  }
  auto& agent = agents_.at(static_cast<std::size_t>(ap_idx));
  if (agent) agent->crash_reset();
}

std::size_t Testbed::flow_index(int ap_idx, int client_idx) const {
  return static_cast<std::size_t>(ap_idx) *
             static_cast<std::size_t>(cfg_.n_clients_per_ap) +
         static_cast<std::size_t>(client_idx);
}

void Testbed::run() {
  W11_CHECK_MSG(!ran_, "Testbed::run may only be called once");
  ran_ = true;
  // W11_TRACE=1 attaches this testbed's own recorder and, when the run
  // finishes, exports it with a snapshot of this run's Stats as the
  // Chrome-trace/JSONL/metrics artifacts (W11_TRACE_OUT overrides the
  // default path).
  const bool tracing = obs::enable_from_env();
  if (tracing) {
    trace_.set_enabled(true);
    sim_.set_tracer(&trace_);
  }
  for (auto& fc : flows_)
    if (fc.sender) fc.sender->start();

  sim_.run_until(cfg_.warmup);
  udp_bytes_at_warmup_.clear();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flows_[i].bytes_at_warmup = clients_[i]->bytes_delivered();
    udp_bytes_at_warmup_.push_back(clients_[i]->udp_bytes_received());
  }
  sim_.run_until(cfg_.warmup + cfg_.duration);
  if (tracing) {
    obs::MetricsRegistry metrics;
    snapshot_stats(*this, cfg_.n_aps, metrics);
    obs::export_run(trace_, metrics, obs::trace_out_path("w11_trace.json"));
  }
}

double Testbed::aggregate_throughput_mbps() const {
  double total = 0.0;
  for (double t : per_client_throughput_mbps()) total += t;
  return total;
}

double Testbed::ap_throughput_mbps(int ap_idx) const {
  const auto per = per_client_throughput_mbps();
  double total = 0.0;
  for (std::size_t i = 0; i < per.size(); ++i)
    if (flows_[i].ap_idx == ap_idx) total += per[i];
  return total;
}

std::vector<double> Testbed::per_client_throughput_mbps() const {
  W11_CHECK_MSG(ran_, "run() first");
  std::vector<double> out;
  const double secs = cfg_.duration.sec();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const std::uint64_t bytes =
        clients_[i]->bytes_delivered() - flows_[i].bytes_at_warmup;
    out.push_back(static_cast<double>(bytes) * 8.0 / 1e6 / secs);
  }
  return out;
}

Testbed::Health Testbed::health() const {
  Health h;
  h.aps = cfg_.n_aps;
  h.clients = static_cast<int>(flows_.size());
  h.aggregate_mbps = 0.0;
  const auto per = per_client_throughput_mbps();
  for (std::size_t i = 0; i < per.size(); ++i) {
    h.aggregate_mbps += per[i];
    if (i == 0 || per[i] < h.client_min_mbps) h.client_min_mbps = per[i];
    if (i == 0 || per[i] > h.client_max_mbps) h.client_max_mbps = per[i];
  }
  if (const obs::TraceRecorder* t = sim_.tracer()) {
    h.trace_events = t->total_events();
    h.trace_dropped = t->total_dropped();
  }
  return h;
}

std::vector<double> Testbed::mean_ampdu_per_client(int ap_idx) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].ap_idx != ap_idx) continue;
    const Samples& s = aps_[static_cast<std::size_t>(ap_idx)]->ampdu_sizes(
        clients_[i]->id());
    out.push_back(s.count() > 0 ? s.mean() : 0.0);
  }
  return out;
}

const TcpSender& Testbed::sender(int ap_idx, int client_idx) const {
  const auto& s = flows_.at(flow_index(ap_idx, client_idx)).sender;
  W11_CHECK_MSG(s != nullptr, "no TCP sender for this flow (UDP mode?)");
  return *s;
}

TcpSender& Testbed::sender(int ap_idx, int client_idx) {
  const auto& s = flows_.at(flow_index(ap_idx, client_idx)).sender;
  W11_CHECK_MSG(s != nullptr, "no TCP sender for this flow (UDP mode?)");
  return *s;
}

const ClientStation& Testbed::client(int ap_idx, int client_idx) const {
  return *clients_.at(flow_index(ap_idx, client_idx));
}

}  // namespace w11::scenario
