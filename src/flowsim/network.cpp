#include "flowsim/network.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "common/check.hpp"
#include "phy/mcs.hpp"

namespace w11::flowsim {

namespace {

constexpr Dbm kCsThreshold = -82.0;     // carrier-sense coupling threshold
constexpr double kMacEfficiency = 0.75; // CSMA overhead factor on PHY rates
constexpr int kSolverIterations = 30;
// A client demanding less than this is "idle" for the DFS rule — overnight
// lulls free APs to take the CAC hit and move to DFS channels (§4.5.2),
// which is where the wide-channel capacity lives.
constexpr double kActiveClientThresholdMbps = 0.5;
// Fraction of CSA announcements missed even by CSA-capable clients
// (§4.3.1: "beacons might be missed even by clients that do support CSAs").
constexpr double kCsaMissRate = 0.10;

double dbm_to_mw(Dbm dbm) { return std::pow(10.0, dbm / 10.0); }
double mw_to_dbm(double mw) { return 10.0 * std::log10(std::max(mw, 1e-12)); }

// Fraction of channel `a` spectrum that channel `b` occupies.
double overlap_fraction(const Channel& a, const Channel& b) {
  if (a.band != b.band) return 0.0;
  const double a_lo = a.center_mhz() - width_mhz(a.width) / 2.0;
  const double a_hi = a.center_mhz() + width_mhz(a.width) / 2.0;
  const double b_lo = b.center_mhz() - width_mhz(b.width) / 2.0;
  const double b_hi = b.center_mhz() + width_mhz(b.width) / 2.0;
  const double shared = std::min(a_hi, b_hi) - std::max(a_lo, b_lo);
  return shared <= 0.0 ? 0.0 : shared / (a_hi - a_lo);
}

// overlap_fraction over catalog ordinals, row-major with stride
// catalog_size().
const double* overlap_fraction_table() {
  static const std::vector<double> table = [] {
    const std::size_t n = channels::catalog_size();
    std::vector<double> t(n * n);
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t c = 0; c < n; ++c)
        t[a * n + c] =
            overlap_fraction(channels::by_ordinal(static_cast<int>(a)),
                             channels::by_ordinal(static_cast<int>(c)));
    return t;
  }();
  return table.data();
}

// The 20 MHz channels a scan reports on: the band's 20 MHz catalog, which
// is its DFS-allowed 20 MHz candidate table.
std::span<const Channel> scan_catalog(Band band) {
  return channels::candidate_table(band, ChannelWidth::MHz20, true).channels;
}

}  // namespace

const ApMetrics& Evaluation::of(ApId id) const {
  for (const auto& m : per_ap)
    if (m.id == id) return m;
  throw std::logic_error("Evaluation::of: unknown AP");
}

Network::Network(Config cfg) : cfg_(cfg), rng_(cfg.seed) {}

ApId Network::add_ap(Position pos, ChannelWidth max_width, Channel initial,
                     bool dfs_capable) {
  W11_CHECK(initial.band == cfg_.band);
  ApNode node;
  node.id = ApId{static_cast<std::uint32_t>(aps_.size())};
  node.pos = pos;
  node.max_width = max_width;
  node.channel = initial;
  node.dfs_capable = dfs_capable;
  aps_.push_back(std::move(node));
  drop(Memo::kTopology);
  return aps_.back().id;
}

StationId Network::add_client(ApId ap, Position pos, ClientCapability cap,
                              double offered_mbps) {
  ClientNode cl;
  cl.id = StationId{next_station_++};
  cl.pos = pos;
  cl.cap = cap;
  cl.offered_mbps = offered_mbps;
  cl.base_offered_mbps = offered_mbps;
  ap_of_mut(ap).clients.push_back(std::move(cl));
  drop(Memo::kTopology);
  return ap_of(ap).clients.back().id;
}

void Network::add_interferer(ExternalInterferer intf) {
  W11_CHECK(intf.channel.band == cfg_.band);
  interferers_.push_back(intf);
  drop(Memo::kTopology);
}

void Network::scale_offered_load(double factor) {
  drop(Memo::kEvaluation);
  for (auto& ap : aps_) {
    for (auto& cl : ap.clients) {
      cl.offered_mbps *= factor;
      cl.base_offered_mbps *= factor;
    }
  }
}

void Network::set_load_factor(double factor) {
  drop(Memo::kEvaluation);
  for (auto& ap : aps_)
    for (auto& cl : ap.clients) cl.offered_mbps = cl.base_offered_mbps * factor;
}

void Network::set_client_load(ApId ap, double per_client_mbps) {
  drop(Memo::kEvaluation);
  for (auto& cl : ap_of_mut(ap).clients) {
    cl.offered_mbps = per_client_mbps;
    cl.base_offered_mbps = per_client_mbps;
  }
}

// Channel and duty only: positions and powers, hence the budget, stay.
void Network::mutate_interferers(Rng& rng) {
  drop(Memo::kInterferers);
  const auto catalog = channels::us_catalog(cfg_.band, ChannelWidth::MHz20);
  for (auto& intf : interferers_) {
    intf.channel = catalog[rng.index(catalog.size())];
    intf.duty_cycle = rng.uniform(0.05, 0.7);
  }
}

int Network::apply_plan(const ChannelPlan& plan) {
  int switches = 0;
  for (auto& ap : aps_) {
    const auto it = plan.find(ap.id);
    if (it == plan.end()) continue;
    if (it->second != ap.channel) {
      ap.channel = it->second;
      ++switches;
      account_switch_disruption(ap);
    }
    refresh_dfs_fallback(ap);
  }
  total_switches_ += switches;
  if (switches > 0) drop(Memo::kPlan);
  return switches;
}

bool Network::apply_channel(ApId id, const Channel& to) {
  ApNode& ap = ap_of_mut(id);
  if (ap.channel == to) {
    refresh_dfs_fallback(ap);
    return false;
  }
  ap.channel = to;
  drop(Memo::kPlan);
  ++total_switches_;
  account_switch_disruption(ap);
  refresh_dfs_fallback(ap);
  return true;
}

ChannelPlan Network::current_plan() const {
  ChannelPlan plan;
  for (const auto& ap : aps_) plan[ap.id] = ap.channel;
  return plan;
}

void Network::account_switch_disruption(const ApNode& ap) {
  // §4.3.1 disruption accounting for this AP's active clients.
  for (const auto& cl : ap.clients) {
    if (cl.offered_mbps <= kActiveClientThresholdMbps) continue;
    const bool follows_csa =
        cl.cap.supports_csa && !rng_.bernoulli(kCsaMissRate);
    if (follows_csa) continue;
    // Detect + rescan + re-associate: ~5 s laptops, ~8 s mobiles; the
    // 1-stream population skews mobile.
    const double secs =
        cl.cap.max_nss >= 2 ? rng_.uniform(4.0, 6.0) : rng_.uniform(7.0, 9.0);
    disruption_client_seconds_ += secs;
  }
}

void Network::refresh_dfs_fallback(ApNode& ap) {
  if (!ap.channel.is_dfs()) {
    ap.dfs_fallback.reset();
    return;
  }
  const auto safe = channels::candidate_set(cfg_.band, ap.max_width,
                                            /*allow_dfs=*/false);
  if (!safe.empty()) {
    ap.dfs_fallback = safe.front();
  } else {
    // No non-DFS channel at this width exists: drop to the narrowest
    // non-DFS option rather than leaving the AP with nowhere to go.
    const auto narrow = channels::candidate_set(cfg_.band, ChannelWidth::MHz20,
                                                /*allow_dfs=*/false);
    if (!narrow.empty()) ap.dfs_fallback = narrow.front();
    else ap.dfs_fallback.reset();
  }
}

void Network::radar_event(ApId id) {
  ApNode& ap = ap_of_mut(id);
  // Radar matters only on the DFS channel the AP currently occupies.
  if (!ap.channel.is_dfs()) return;
  // Repeat strike on a channel already vacated this epoch: the planner (or
  // a revert) put an AP back onto it before rearm_radar(). The AP must
  // still leave, but the degradation counters already charged this event —
  // counting it again double-books evacuations and client disruption.
  const bool duplicate = !radar_struck_.insert(ap.channel).second;
  if (!ap.dfs_fallback || *ap.dfs_fallback == ap.channel)
    refresh_dfs_fallback(ap);
  ap.channel = ap.dfs_fallback.value_or(
      Channel{cfg_.band, 36, ChannelWidth::MHz20});
  drop(Memo::kPlan);
  ++total_switches_;
  if (duplicate) {
    ++radar_duplicates_;
    refresh_dfs_fallback(ap);
    return;
  }
  ++radar_evacuations_;
  account_switch_disruption(ap);
  // The stale fallback was the bug: an operator-supplied (possibly DFS)
  // fallback survived the evacuation, so a second strike on it had nowhere
  // to go. Recompute from the channel actually occupied now.
  refresh_dfs_fallback(ap);
}

const ApNode& Network::ap_of(ApId id) const {
  W11_CHECK(id.value() < aps_.size());
  return aps_[id.value()];
}

ApNode& Network::ap_of_mut(ApId id) {
  W11_CHECK(id.value() < aps_.size());
  return aps_[id.value()];
}

void Network::drop(Memo level) {
  const auto kept = static_cast<Memo>(static_cast<std::uint8_t>(level) - 1);
  memo_ = std::min(memo_, kept);
  if (level == Memo::kTopology || level == Memo::kInterferers)
    scan_duty_.valid = false;
}

const Network::LinkBudget& Network::budget() const {
  if (memo_ >= Memo::kTopology) return budget_;
  const std::size_t n = aps_.size();
  const std::size_t m = interferers_.size();
  LinkBudget& b = budget_;
  b.rx_mw.assign(n * n, 0.0);
  b.cs_aps.assign(n, {});
  // Row i gains its neighbours j < i from earlier rows, then j > i from its
  // own, so every list comes out in ascending index order.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const Dbm rssi = kApTxPowerDbm -
                       cfg_.prop.path_loss(aps_[i].pos, aps_[j].pos, cfg_.band);
      b.rx_mw[i * n + j] = b.rx_mw[j * n + i] = dbm_to_mw(rssi);
      if (rssi > kCsThreshold) {
        b.cs_aps[i].push_back(CsNeighbor{static_cast<std::uint32_t>(j), rssi});
        b.cs_aps[j].push_back(CsNeighbor{static_cast<std::uint32_t>(i), rssi});
      }
    }
  }
  b.clients.assign(n, {});
  b.client_begin.assign(n + 1, 0);
  b.intf_ap.assign(n * m, 0.0);
  b.cs_interferers.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    const ApNode& ap = aps_[i];
    for (const ClientNode& cl : ap.clients) {
      ClientLink link;
      link.loss = cfg_.prop.path_loss(ap.pos, cl.pos, cfg_.band);
      link.mcs_cap = cl.cap.to_mcs_capability().max_mcs;
      // The efficiency denominator is the max rate "supported by both for a
      // particular association" (§4.6.2): associations are established at
      // the AP's *operating* width, so the metric is width-neutral and
      // measures how close the link runs to its SINR-free ceiling —
      // contention and interference are what drag it down.
      for (std::size_t w = 0; w < link.max_rate.size(); ++w) {
        ApCapability ap_cap;  // 3x3 wave-2
        ap_cap.max_width = static_cast<ChannelWidth>(w);
        link.max_rate[w] = mcs::max_rate(ap_cap.to_mcs_capability(),
                                         cl.cap.to_mcs_capability())
                               .mbps();
      }
      b.clients[i].push_back(link);
    }
    b.client_begin[i + 1] =
        b.client_begin[i] + static_cast<std::uint32_t>(ap.clients.size());
    for (std::size_t k = 0; k < m; ++k) {
      const ExternalInterferer& intf = interferers_[k];
      const Db loss = cfg_.prop.path_loss(intf.pos, ap.pos, cfg_.band);
      b.intf_ap[i * m + k] = loss;
      if (intf.tx_power - loss > kCsThreshold)
        b.cs_interferers[i].push_back(k);
    }
  }
  for (std::size_t w = 0; w < b.noise_mw.size(); ++w) {
    const Dbm floor = cfg_.prop.noise_floor(static_cast<ChannelWidth>(w));
    b.noise_mw[w] = dbm_to_mw(floor);
    b.noise_dbm[w] = mw_to_dbm(b.noise_mw[w]);
  }
  memo_ = Memo::kTopology;
  return budget_;
}

const Network::PlanCache& Network::plan_cache() const {
  if (memo_ >= Memo::kPlan) return plan_;
  const LinkBudget& b = budget();
  const std::size_t n = aps_.size();
  PlanCache& p = plan_;
  p.ord.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    p.ord[i] = channels::ordinal(aps_[i].channel);
  const auto overlap = [&](std::size_t i, std::size_t j) {
    return p.ord[i] >= 0 && p.ord[j] >= 0
               ? channels::overlaps_ordinal(p.ord[i], p.ord[j])
               : aps_[i].channel.overlaps(aps_[j].channel);
  };
  p.cs.assign(n, {});
  p.hidden.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    // Walk i's CS list alongside j: both ascend.
    auto sensed = b.cs_aps[i].begin();
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const bool in_cs = sensed != b.cs_aps[i].end() && sensed->index == j;
      if (in_cs) ++sensed;
      if (!overlap(i, j)) continue;
      (in_cs ? p.cs : p.hidden)[i].push_back(static_cast<std::uint32_t>(j));
    }
  }
  p.rate0.clear();
  p.rate0.reserve(b.client_begin[n]);
  for (std::size_t i = 0; i < n; ++i) {
    const ApNode& ap = aps_[i];
    for (std::size_t c = 0; c < ap.clients.size(); ++c) {
      const ClientNode& cl = ap.clients[c];
      const ChannelWidth width = std::min(ap.channel.width, cl.cap.max_width);
      // No interference: noise_mw + 0.0 is noise_mw, so its dBm is cached.
      p.rate0.push_back(client_phy_rate(
          cl, b.clients[i][c], width,
          b.noise_dbm[static_cast<std::size_t>(width)],
          static_cast<int>(p.cs[i].size())));
    }
  }
  memo_ = Memo::kPlan;
  return p;
}

const Network::InterfererCache& Network::interferer_cache() const {
  if (memo_ >= Memo::kInterferers) return intf_;
  const LinkBudget& b = budget();
  (void)plan_cache();  // the levels fill in order
  const std::size_t n = aps_.size();
  const std::size_t m = interferers_.size();
  InterfererCache& x = intf_;
  x.ext.resize(n);
  x.terms.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    const Channel& on = aps_[i].channel;
    x.ext[i] = external_duty_at(b, i, on);
    // External interferers beyond carrier-sense range still radiate into
    // the cell and erode client SINR.
    for (std::size_t k = 0; k < m; ++k) {
      const ExternalInterferer& intf = interferers_[k];
      if (!intf.channel.overlaps(on)) continue;
      const Dbm p = intf.tx_power - b.intf_ap[i * m + k];
      if (p > kCsThreshold) continue;  // in range -> serialized
      x.terms[i].push_back(dbm_to_mw(p) * intf.duty_cycle *
                           overlap_fraction(on, intf.channel));
    }
  }
  memo_ = Memo::kInterferers;
  return x;
}

const Network::ScanDuty& Network::scan_duty() const {
  if (scan_duty_.valid) return scan_duty_;
  const LinkBudget& b = budget();
  const std::span<const Channel> catalog = scan_catalog(cfg_.band);
  ScanDuty& d = scan_duty_;
  d.begin.assign(1, 0);
  d.duty.clear();
  for (std::size_t i = 0; i < aps_.size(); ++i) {
    for (std::size_t c = 0; c < catalog.size(); ++c) {
      // A zero duty reads back as 0.0, which scan() treats alike.
      const double u = external_duty_at(b, i, catalog[c]);
      if (u != 0.0) d.duty.emplace_back(static_cast<std::uint32_t>(c), u);
    }
    d.begin.push_back(static_cast<std::uint32_t>(d.duty.size()));
  }
  d.valid = true;
  return d;
}

double Network::external_duty_at(const LinkBudget& b, std::size_t i,
                                 const Channel& on) const {
  double duty = 0.0;
  for (const std::size_t k : b.cs_interferers[i]) {
    const ExternalInterferer& intf = interferers_[k];
    if (!intf.channel.overlaps(on)) continue;
    duty += intf.duty_cycle * overlap_fraction(on, intf.channel);
  }
  return std::min(duty, 1.0);
}

double Network::client_phy_rate(const ClientNode& cl, const ClientLink& link,
                                ChannelWidth width, Dbm noise_intf_dbm,
                                int cochannel_contenders) const {
  const Dbm rssi = kApTxPowerDbm - link.loss;
  const Db sinr = rssi - noise_intf_dbm;
  // Rate controllers back off under contention: collisions and retries on
  // a crowded channel look like loss, so Minstrel-style adaptation settles
  // on lower MCS (§4.6.2's "reduce medium contention ... use higher bit
  // rates"). ~1 dB of effective margin per co-channel contender, capped.
  const Db contention_backoff =
      std::min(1.0 * std::max(cochannel_contenders, 0), 9.0);
  const int nss = std::min(3, cl.cap.max_nss);  // 3x3 APs
  const auto pick = mcs::select(sinr - 2.0 - contention_backoff, width, nss);
  if (!pick) return 6.0;  // floor: lowest legacy rate
  McsIndex idx = *pick;
  if (idx.mcs > link.mcs_cap) idx.mcs = link.mcs_cap;
  return mcs::rate(idx, width, cl.cap.short_gi)
      .value_or(RateMbps{6.0})
      .mbps();
}

Evaluation Network::evaluate() const { return evaluation(); }

const Evaluation& Network::evaluation() const {
  if (memo_ < Memo::kEvaluation) {
    eval_ = solve();
    memo_ = Memo::kEvaluation;
  }
  return eval_;
}

Evaluation Network::solve() const {
  const std::size_t n = aps_.size();
  const LinkBudget& b = budget();
  const PlanCache& p = plan_cache();
  const InterfererCache& x = interferer_cache();
  // CS-coupled, channel-overlapping neighborhoods for the current plan.
  const auto& nbrs = p.cs;
  const std::vector<double>& ext = x.ext;
  Evaluation ev;
  ev.per_ap.resize(n);

  // Two passes: rates -> airtime -> interference-adjusted rates -> airtime.
  // An AP whose clients see no interference keeps its first-pass rates.
  std::vector<double> demand(n), share(n), last(n), pressure(n);
  std::vector<double> client_intf_mw(n, 0.0);  // per-AP mean interference
  std::vector<double> rate1(b.client_begin[n]);
  const auto client_rates = [&](std::size_t i) {
    const std::vector<double>& rates =
        client_intf_mw[i] == 0.0 ? p.rate0 : rate1;
    return std::span<const double>(rates).subspan(
        b.client_begin[i], aps_[i].clients.size());
  };

  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      const ApNode& ap = aps_[i];
      if (pass == 1 && client_intf_mw[i] != 0.0) {
        // A client's width is at most the AP's, and clients of one width
        // share one noise-plus-interference power.
        std::array<double, 4> noise_intf_dbm{};
        for (std::size_t w = 0; w <= static_cast<std::size_t>(ap.channel.width);
             ++w)
          noise_intf_dbm[w] = mw_to_dbm(b.noise_mw[w] + client_intf_mw[i]);
        for (std::size_t c = 0; c < ap.clients.size(); ++c) {
          const ClientNode& cl = ap.clients[c];
          const ChannelWidth width =
              std::min(ap.channel.width, cl.cap.max_width);
          rate1[b.client_begin[i] + c] = client_phy_rate(
              cl, b.clients[i][c], width,
              noise_intf_dbm[static_cast<std::size_t>(width)],
              static_cast<int>(nbrs[i].size()));
        }
      }
      const std::span<const double> rate = client_rates(i);
      double d = 0.0;
      for (std::size_t c = 0; c < ap.clients.size(); ++c)
        d += ap.clients[c].offered_mbps /
             std::max(rate[c] * kMacEfficiency, 1.0);
      demand[i] = std::min(d + 0.003 /*beacons & mgmt*/, 4.0);
      share[i] = std::min(demand[i], std::max(0.0, 1.0 - ext[i]));
    }

    // Damped water-filling on neighborhood constraints. Each iteration is
    // a function of `share` alone, so once one leaves it bit-for-bit
    // unchanged, so would every later one.
    for (int it = 0; it < kSolverIterations; ++it) {
      last = share;
      std::fill(pressure.begin(), pressure.end(), 1.0);
      for (std::size_t k = 0; k < n; ++k) {
        double load = share[k] + ext[k];
        for (std::size_t j : nbrs[k]) load += share[j];
        if (load > 1.0) {
          const double f = 1.0 / load;
          pressure[k] = std::min(pressure[k], f);
          for (std::size_t j : nbrs[k]) pressure[j] = std::min(pressure[j], f);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        // Shrink under pressure, creep back toward demand otherwise.
        share[i] = (pressure[i] < 1.0)
                       ? share[i] * std::pow(pressure[i], 0.6)
                       : std::min(demand[i], share[i] * 1.08 + 1e-4);
      }
      if (std::memcmp(last.data(), share.data(), n * sizeof(double)) == 0)
        break;
    }

    if (pass == 0) {
      // Interference at clients from co-channel transmitters the serving AP
      // cannot carrier-sense (concurrent transmissions).
      const double* frac = overlap_fraction_table();
      const std::size_t n_ord = channels::catalog_size();
      for (std::size_t i = 0; i < n; ++i) {
        if (aps_[i].clients.empty()) continue;
        double mw = 0.0;
        // Use the AP's own position as a proxy for its clients' locations.
        // CS neighbours are serialized by CSMA; only hidden APs interfere.
        for (const std::size_t j : p.hidden[i]) {
          const double f =
              p.ord[i] >= 0 && p.ord[j] >= 0
                  ? frac[static_cast<std::size_t>(p.ord[i]) * n_ord +
                         static_cast<std::size_t>(p.ord[j])]
                  : overlap_fraction(aps_[i].channel, aps_[j].channel);
          mw += b.rx_mw[j * n + i] * share[j] * f;
        }
        for (const double term : x.terms[i]) mw += term;
        client_intf_mw[i] = mw;
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const ApNode& ap = aps_[i];
    ApMetrics& m = ev.per_ap[i];
    m.id = ap.id;
    m.demand_airtime = demand[i];
    m.airtime_share = share[i];
    double load = share[i] + ext[i];
    for (std::size_t j : nbrs[i]) load += share[j];
    m.utilization = std::min(load, 1.0);
    m.cochannel_interferers = static_cast<int>(nbrs[i].size());

    double offered = 0.0;
    for (const auto& cl : ap.clients) offered += cl.offered_mbps;
    m.offered_mbps = offered;
    const double fulfil =
        demand[i] > 1e-9 ? std::min(1.0, share[i] / demand[i]) : 1.0;
    m.throughput_mbps = offered * fulfil;

    const std::span<const double> rate = client_rates(i);
    double rate_sum = 0.0, eff_sum = 0.0;
    m.client_efficiency.reserve(ap.clients.size());
    for (std::size_t c = 0; c < ap.clients.size(); ++c) {
      rate_sum += rate[c];
      const double max_rate =
          b.clients[i][c].max_rate[static_cast<std::size_t>(ap.channel.width)];
      const double eff =
          max_rate > 0.0 ? std::min(1.0, rate[c] / max_rate) : 0.0;
      m.client_efficiency.push_back(eff);
      eff_sum += eff;
    }
    if (!ap.clients.empty()) {
      m.mean_phy_rate_mbps = rate_sum / static_cast<double>(ap.clients.size());
      m.mean_bitrate_efficiency =
          eff_sum / static_cast<double>(ap.clients.size());
    }
    ev.total_throughput_mbps += m.throughput_mbps;
    ev.total_offered_mbps += offered;
  }

  // WAN uplink cap (UNet's limiting factor, §4.6.2).
  if (cfg_.uplink_capacity.positive() &&
      ev.total_throughput_mbps > cfg_.uplink_capacity.mbps()) {
    const double f = cfg_.uplink_capacity.mbps() / ev.total_throughput_mbps;
    for (auto& m : ev.per_ap) m.throughput_mbps *= f;
    ev.total_throughput_mbps = cfg_.uplink_capacity.mbps();
  }
  return ev;
}

std::vector<ApScan> Network::scan() const {
  const Evaluation& ev = evaluation();
  const LinkBudget& b = budget();
  const std::span<const Channel> catalog = scan_catalog(cfg_.band);
  const ScanDuty& duty = scan_duty();
  const std::size_t n = aps_.size();
  std::vector<ApScan> scans;
  scans.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ApNode& ap = aps_[i];
    ApScan s;
    s.id = ap.id;
    s.band = cfg_.band;
    s.current = ap.channel;
    s.max_width = ap.max_width;
    // "Connected clients" for the DFS rule means *active* clients: an AP
    // whose associated devices are idle (overnight) may take the CAC hit
    // and move to a DFS channel.
    s.has_clients = false;
    for (const auto& cl : ap.clients)
      if (cl.offered_mbps > kActiveClientThresholdMbps)
        s.has_clients = true;
    s.dfs_capable = ap.dfs_capable;
    s.utilization_current = ev.per_ap[i].utilization;

    for (const auto& cl : ap.clients) {
      const ChannelWidth w = std::min(cl.cap.max_width, ap.max_width);
      s.load_by_width[w] += 1.0 + cl.offered_mbps / 5.0;
    }

    s.neighbors.reserve(b.cs_aps[i].size());
    for (const CsNeighbor& nb : b.cs_aps[i])
      s.neighbors.push_back(NeighborReport{aps_[nb.index].id, nb.rssi});

    s.quality.reserve(catalog.size());
    std::uint32_t e = duty.begin[i];
    for (std::size_t c = 0; c < catalog.size(); ++c) {
      const Channel& comp = catalog[c];
      double u = 0.0;
      if (e < duty.begin[i + 1] && duty.duty[e].first == c)
        u = duty.duty[e++].second;
      if (cfg_.scan_noise_sigma > 0.0 && u > 0.0) {
        // Scanning-radio sampling error (150 ms dwells, §2.1).
        u = std::clamp(u + rng_.normal(0.0, cfg_.scan_noise_sigma), 0.0, 1.0);
      }
      if (u > 0.0) s.external_util[comp.number] = u;
      s.quality[comp.number] = std::clamp(1.0 - 0.6 * u, 0.05, 1.0);
    }
    scans.push_back(std::move(s));
  }
  return scans;
}

Samples Network::sample_tcp_latency(const Evaluation& ev, int samples_per_ap,
                                    double slow_client_fraction) {
  Samples out;
  for (const auto& m : ev.per_ap) {
    if (m.offered_mbps <= 0.0) continue;
    // Medium-access queueing: a base wired/stack latency plus a term that
    // explodes as the collision domain saturates, plus per-contender cost.
    const double u = std::min(m.utilization, 0.97);
    const double mean_ms =
        3.0 + 14.0 * u / (1.0 - u) + 0.8 * m.cochannel_interferers;
    const double sigma = 0.55;
    const double mu = std::log(mean_ms) - sigma * sigma / 2.0;
    for (int k = 0; k < samples_per_ap; ++k) {
      if (rng_.bernoulli(slow_client_fraction)) {
        out.add(rng_.uniform(400.0, 1200.0));  // unresponsive-client tail
      } else {
        // Queueing latency is bounded by finite AP queues; the paper
        // attributes everything >=400 ms to unresponsive clients (Fig. 8),
        // so the congestion component saturates below that.
        out.add(std::min(rng_.lognormal(mu, sigma), 380.0));
      }
    }
  }
  return out;
}

Samples Network::sample_bitrate_efficiency(const Evaluation& ev) const {
  Samples out;
  for (const auto& m : ev.per_ap)
    for (double eff : m.client_efficiency) out.add(eff);
  return out;
}

Samples Network::sample_client_rssi() const {
  const LinkBudget& b = budget();
  Samples out;
  for (const auto& links : b.clients)
    for (const ClientLink& link : links) out.add(kClientTxPowerDbm - link.loss);
  return out;
}

Samples Network::sample_utilization(const Evaluation& ev) const {
  Samples out;
  for (const auto& m : ev.per_ap) out.add(m.utilization);
  return out;
}

Samples Network::sample_cochannel_interferers() const {
  Samples out;
  for (const auto& cs : plan_cache().cs)
    out.add(static_cast<double>(cs.size()));
  return out;
}

}  // namespace w11::flowsim
