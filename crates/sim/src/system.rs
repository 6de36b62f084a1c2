//! The [`System`]: cores, TLBs, SRAM caches, DRAM-cache scheme and
//! DRAM devices wired into one cycle-level simulation.

use crate::config::SystemConfig;
use crate::report::{ObsSeries, RunReport};
use nomad_cache::{CacheLevel, TlbHierarchy, TlbLookup};
use nomad_cpu::{Core, PendingMemOp};
use nomad_dcache::{CacheFlush, DcAccessReq, DcScheme, SchemeEvents, SchemeStatsObs};
use nomad_dram::Dram;
use nomad_obs::{Histo, Registry, SnapshotLog, SpanRing, SIM_TRACKS, TRACK_LLC_MSHR};
use nomad_trace::TraceSource;
use nomad_types::{
    AccessKind, BlockAddr, CancelToken, CoreId, Cycle, MemReq, MemTarget, NextActivity, ReqId,
    TimingWheel, TrafficClass, VirtAddr,
};

/// Per-core address-space namespacing: each core runs its own copy of
/// the benchmark in a disjoint virtual range (the paper's rate-mode
/// setup).
fn namespaced(vaddr: VirtAddr, core: CoreId) -> VirtAddr {
    VirtAddr(vaddr.raw() | ((core as u64) << 44))
}

#[derive(Debug, Clone, Copy)]
struct Walk {
    op: PendingMemOp,
    ready_at: Cycle,
}

#[derive(Debug, Clone, Copy)]
struct IssueEntry {
    at: Cycle,
    op: PendingMemOp,
    addr: BlockAddr,
    target: MemTarget,
}

/// Hierarchy-wide flush view handed to the scheme (Algorithm 2's
/// `flush_cache_range`).
struct HierFlush<'a> {
    l1s: &'a mut [CacheLevel],
    l2s: &'a mut [CacheLevel],
    l3: &'a mut CacheLevel,
}

impl CacheFlush for HierFlush<'_> {
    fn flush_dc_page(&mut self, page: u64) -> (usize, usize) {
        let mut lines = 0;
        let mut dirty = 0;
        for c in self.l1s.iter_mut().chain(self.l2s.iter_mut()) {
            let (l, d) = c.invalidate_dc_page(page);
            lines += l;
            dirty += d;
        }
        let (l, d) = self.l3.invalidate_dc_page(page);
        (lines + l, dirty + d)
    }
}

/// Metric names exported as `ph:"C"` counter series in the Chrome
/// trace — the occupancy signals that make TDC's blocking vs NOMAD's
/// non-blocking behaviour visible above the span rows.
const TRACE_COUNTERS: &[&str] = &[
    "dcache.pcshr_occupancy",
    "dcache.free_frames",
    "cache.l3.mshr_occupancy",
];

/// Wall-clock split of the dense-tick hot path, armed by the
/// `NOMAD_HOT_PROFILE` environment variable (or
/// [`System::enable_hot_profile`]). Purely observational: the counters
/// never feed back into simulated state, so profiled and unprofiled
/// runs produce byte-identical [`RunReport`]s. Off (the default), the
/// only residue on the tick path is a handful of `Option::is_some`
/// branches. Armed, the laps read [`nomad_types::fastclock`] (RDTSC
/// on x86-64, a few ns per read) instead of `Instant`, keeping the
/// profiled run within a few percent of unprofiled speed; raw units
/// are converted to nanoseconds only when a report is snapshotted.
#[derive(Debug, Default, Clone, Copy)]
struct HotProfile {
    /// Phases 1–3: core commit/dispatch, translation, L1 injection.
    cpu_raw: u64,
    /// Phase 4: the SRAM hierarchy ([`System::tick_caches`]).
    cache_raw: u64,
    /// Phase 5: scheme tick (which ticks both DRAM devices internally)
    /// plus response/shootdown/wake delivery. The DRAM share is carved
    /// out afterwards from the devices' own profiled time.
    scheme_raw: u64,
    /// Dense [`System::tick`] calls in the profiled window.
    dense_ticks: u64,
    /// Event-kernel bulk advances ([`System::skip`]) in the window.
    skips: u64,
    /// Cycles covered by those skips.
    skipped_cycles: u64,
    /// Phase-5-only burst cycles (cpu-quiet regions) in the window.
    burst_ticks: u64,
}

/// Snapshot of the hot-path profile ([`System::hot_profile`]),
/// suitable for JSON artifacts. The dcache/dram split divides phase 5:
/// `dram_nanos` is wall time inside `Dram::tick` for both devices,
/// `dcache_nanos` is the rest of the scheme tick.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct HotProfileReport {
    /// Wall nanos in the core/translation/issue phases.
    pub cpu_nanos: u64,
    /// Wall nanos in the SRAM hierarchy phase.
    pub cache_nanos: u64,
    /// Wall nanos in the scheme tick outside the DRAM devices.
    pub dcache_nanos: u64,
    /// Wall nanos inside `Dram::tick` (HBM + DDR4).
    pub dram_nanos: u64,
    /// Dense ticks in the profiled window.
    pub dense_ticks: u64,
    /// Event-kernel skips in the window.
    pub skips: u64,
    /// Cycles covered by those skips.
    pub skipped_cycles: u64,
    /// Phase-5-only burst cycles (cpu-quiet dense regions executed
    /// without touching cores, translation or the SRAM hierarchy).
    pub burst_ticks: u64,
}

/// Observability state of one system: the per-system [`Registry`] every
/// component registered into, the shared span ring, and the snapshot
/// schedule. Per-system (never global) so `NOMAD_JOBS=4` sweeps stay
/// deterministic — parallel cells never share a metric cell.
struct SysObs {
    registry: Registry,
    ring: SpanRing,
    log: SnapshotLog,
    /// Snapshot cadence in cycles ([`nomad_obs::sample_interval`]).
    interval: u64,
    /// Next cycle at (or after) which a snapshot is due.
    next_sample: Cycle,
    /// Cycles jumped per event-kernel skip.
    skip_span: Histo,
    /// Sampled mirrors of the generic [`nomad_dcache::SchemeStats`].
    scheme_gauges: SchemeStatsObs,
}

/// A complete simulated system.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    tlbs: Vec<TlbHierarchy>,
    l1s: Vec<CacheLevel>,
    l2s: Vec<CacheLevel>,
    l3: CacheLevel,
    scheme: Box<dyn DcScheme>,
    hbm: Dram,
    ddr: Dram,
    cycle: Cycle,
    /// Page-table walks in flight, per core.
    walking: Vec<Vec<Walk>>,
    /// Memory ops whose walk blocked on an OS routine, per core.
    blocked: Vec<Vec<PendingMemOp>>,
    /// Translated ops awaiting L1 injection, per core.
    issue_q: Vec<Vec<IssueEntry>>,
    ev: SchemeEvents,
    /// Cycles measured since the last stats reset.
    measured_cycles: Cycle,
    /// Observability state; `None` (the common case) is the exact
    /// pre-instrumentation code path.
    obs: Option<SysObs>,
    /// Hot-path wall-time profile; `None` (the common case) keeps the
    /// tick loop free of any clock reads.
    hot: Option<HotProfile>,
    /// The event calendar: one deadline slot per source (see
    /// [`Self::refresh_wheel`] for the layout), refreshed at kernel
    /// decision points and read in O(1) by the run loop.
    wheel: TimingWheel,
}

/// Wheel sources past the three per-core clusters: L3, scheme, HBM,
/// DDR; see [`System::refresh_wheel`].
const WHEEL_EXTRA: usize = 4;

/// Shortest cpu-quiet window worth running as a burst instead of dense
/// backoff ticks: a burst ends with a full wheel refresh (including the
/// DRAM command-queue bound scans), so it must save at least this many
/// phase-1–4 executions to pay for itself.
const MIN_BURST: Cycle = 8;

impl core::fmt::Debug for System {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("System")
            .field("scheme", &self.scheme.name())
            .field("cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Assemble a system running `scheme` with one trace per core.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != cfg.cores`.
    pub fn new(
        cfg: SystemConfig,
        scheme: Box<dyn DcScheme>,
        traces: Vec<Box<dyn TraceSource>>,
    ) -> Self {
        assert_eq!(traces.len(), cfg.cores, "one trace per core");
        assert!(
            3 * cfg.cores + WHEEL_EXTRA <= nomad_types::wheel::MAX_SOURCES,
            "the timing wheel tracks at most {} sources (3 per core + {WHEEL_EXTRA})",
            nomad_types::wheel::MAX_SOURCES
        );
        let cores: Vec<Core> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Core::new(i, cfg.core, t))
            .collect();
        let mut sys = System {
            tlbs: (0..cfg.cores).map(|_| TlbHierarchy::new(cfg.tlb)).collect(),
            l1s: (0..cfg.cores)
                .map(|_| CacheLevel::new(cfg.l1.clone()))
                .collect(),
            l2s: (0..cfg.cores)
                .map(|_| CacheLevel::new(cfg.l2.clone()))
                .collect(),
            l3: CacheLevel::new(cfg.l3.clone()),
            scheme,
            hbm: Dram::new(cfg.hbm.clone()),
            ddr: Dram::new(cfg.ddr.clone()),
            cycle: 0,
            walking: (0..cfg.cores).map(|_| Vec::new()).collect(),
            blocked: (0..cfg.cores).map(|_| Vec::new()).collect(),
            issue_q: (0..cfg.cores).map(|_| Vec::new()).collect(),
            ev: SchemeEvents::default(),
            measured_cycles: 0,
            obs: None,
            hot: None,
            wheel: TimingWheel::new(3 * cfg.cores + WHEEL_EXTRA),
            cores,
            cfg,
        };
        if nomad_obs::enabled() {
            sys.install_obs();
        }
        if std::env::var_os("NOMAD_HOT_PROFILE").is_some() {
            sys.enable_hot_profile();
        }
        sys
    }

    /// Whether this system can be recycled for a cell running under
    /// `cfg`: the configuration must be identical (component geometry
    /// is baked into every allocation), the system must be un-observed,
    /// and observability must currently be off — [`System::new`] would
    /// install a fresh registry for an observed cell, so recycling an
    /// obs-less system while [`nomad_obs::enabled`] would silently
    /// produce an unobserved run. Observed cells always build from
    /// scratch.
    pub fn can_reuse_for(&self, cfg: &SystemConfig) -> bool {
        self.obs.is_none() && !nomad_obs::enabled() && self.cfg == *cfg
    }

    /// Recycle this system for a new cell: every component returns to
    /// its just-constructed state while keeping its allocations, the
    /// new scheme and traces are installed, and the clock rewinds to
    /// cycle 0. The result is behaviourally indistinguishable from
    /// `System::new(cfg, scheme, traces)` — the `arena_parity` suite
    /// holds reused-vs-fresh runs to byte-identical [`RunReport`]s.
    ///
    /// Callers must check [`can_reuse_for`](Self::can_reuse_for) first.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the configured core count.
    pub fn reset_for_cell(&mut self, scheme: Box<dyn DcScheme>, traces: Vec<Box<dyn TraceSource>>) {
        assert_eq!(traces.len(), self.cfg.cores, "one trace per core");
        debug_assert!(self.obs.is_none(), "observed systems are not reusable");
        for (core, trace) in self.cores.iter_mut().zip(traces) {
            core.reset_with_trace(trace);
        }
        for tlb in &mut self.tlbs {
            tlb.reset();
        }
        for l1 in &mut self.l1s {
            l1.reset();
        }
        for l2 in &mut self.l2s {
            l2.reset();
        }
        self.l3.reset();
        self.scheme = scheme;
        self.hbm.reset();
        self.ddr.reset();
        self.cycle = 0;
        for q in &mut self.walking {
            q.clear();
        }
        for q in &mut self.blocked {
            q.clear();
        }
        for q in &mut self.issue_q {
            q.clear();
        }
        self.ev.clear();
        self.measured_cycles = 0;
        if self.hot.is_some() {
            // Dram::reset cleared the devices' profiled time; restart
            // the system-side laps to match a freshly armed profile.
            self.hot = Some(HotProfile::default());
        }
        self.wheel.clear();
    }

    /// Arm the hot-path wall-time profile (see [`HotProfileReport`]).
    /// Also armed by the `NOMAD_HOT_PROFILE` environment variable.
    /// Counters restart from zero at every [`reset_stats`](Self::reset_stats),
    /// so a warm-up phase never pollutes the measured window.
    pub fn enable_hot_profile(&mut self) {
        nomad_types::fastclock::init();
        self.hot = Some(HotProfile::default());
        self.hbm.set_profile(true);
        self.ddr.set_profile(true);
    }

    /// Snapshot the hot-path profile, or `None` when it is not armed.
    pub fn hot_profile(&self) -> Option<HotProfileReport> {
        let h = self.hot.as_ref()?;
        let to_nanos = nomad_types::fastclock::span_to_nanos;
        let dram_raw = self.hbm.profiled_raw() + self.ddr.profiled_raw();
        Some(HotProfileReport {
            cpu_nanos: to_nanos(h.cpu_raw),
            cache_nanos: to_nanos(h.cache_raw),
            dcache_nanos: to_nanos(h.scheme_raw.saturating_sub(dram_raw)),
            dram_nanos: to_nanos(dram_raw),
            dense_ticks: h.dense_ticks,
            burst_ticks: h.burst_ticks,
            skips: h.skips,
            skipped_cycles: h.skipped_cycles,
        })
    }

    /// Build the per-system [`Registry`], attach every component's
    /// metrics to it, and start the snapshot schedule. Called once from
    /// [`System::new`] when [`nomad_obs::enabled`] — an un-observed
    /// system never holds any obs state at all.
    fn install_obs(&mut self) {
        let registry = Registry::new();
        let ring = SpanRing::default();
        for core in &mut self.cores {
            core.attach_obs(&registry);
        }
        for (i, l1) in self.l1s.iter_mut().enumerate() {
            l1.attach_obs(&registry, &format!("cache.l1.{i}"));
        }
        for (i, l2) in self.l2s.iter_mut().enumerate() {
            l2.attach_obs(&registry, &format!("cache.l2.{i}"));
        }
        self.l3
            .attach_obs_full(&registry, "cache.l3", ring.clone(), TRACK_LLC_MSHR);
        self.hbm.attach_obs(&registry, "dram.hbm");
        self.ddr.attach_obs(&registry, "dram.ddr");
        self.scheme.attach_obs(&registry, &ring);
        let skip_span = registry.histogram(
            "sim.kernel.skip_span",
            "cycles",
            "sim",
            "Cycles jumped per event-kernel skip",
        );
        let scheme_gauges = SchemeStatsObs::register(&registry);
        let interval = nomad_obs::sample_interval();
        self.obs = Some(SysObs {
            registry,
            ring,
            log: SnapshotLog::new(),
            interval,
            next_sample: self.cycle - self.cycle % interval + interval,
            skip_span,
            scheme_gauges,
        });
    }

    /// Refresh every registered gauge from live component state and
    /// append one snapshot keyed by `now`; reschedules the next sample
    /// at the following `interval` boundary.
    fn obs_sample(&mut self, now: Cycle) {
        let Some(obs) = self.obs.as_mut() else {
            return;
        };
        for core in &self.cores {
            core.obs_sample();
        }
        for lvl in self.l1s.iter().chain(self.l2s.iter()) {
            lvl.obs_sample();
        }
        self.l3.obs_sample();
        self.hbm.obs_sample();
        self.ddr.obs_sample();
        self.scheme.obs_sample();
        obs.scheme_gauges.sample(self.scheme.stats());
        obs.log.push(obs.registry.snapshot(now));
        obs.next_sample = now - now % obs.interval + obs.interval;
    }

    /// Render the observed run into serialized artifacts, or `None`
    /// when the system is un-observed. `label` names the trace process
    /// (e.g. `"mcf NOMAD"`).
    pub fn obs_series(&self, label: &str) -> Option<ObsSeries> {
        let obs = self.obs.as_ref()?;
        Some(ObsSeries {
            interval: obs.interval,
            snapshots: nomad_obs::export::snapshot_json(
                obs.interval,
                &obs.registry.descs(),
                &obs.log,
            ),
            trace: nomad_obs::trace::chrome_trace(
                label,
                SIM_TRACKS,
                &obs.ring,
                Some(&obs.log),
                TRACE_COUNTERS,
            ),
        })
    }

    /// Sorted base names of every metric this system's registry
    /// exports, or `None` when un-observed. The `metrics_doc` test in
    /// `nomad-bench` diffs this list against `METRICS.md`.
    pub fn obs_metric_names(&self) -> Option<Vec<String>> {
        self.obs.as_ref().map(|o| o.registry.names())
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Cycles since the last stats reset.
    pub fn measured_cycles(&self) -> Cycle {
        self.measured_cycles
    }

    /// The system configuration.
    pub fn cfg(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The active scheme (for stats).
    pub fn scheme(&self) -> &dyn DcScheme {
        self.scheme.as_ref()
    }

    /// Total instructions committed across all cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.stats().instructions.get())
            .sum()
    }

    /// Minimum per-core committed instructions (run-completion metric).
    pub fn min_core_instructions(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.stats().instructions.get())
            .min()
            .unwrap_or(0)
    }

    /// Checkpoint warming: start the DRAM cache the way a long-running
    /// system would have left it. First, *aged* pages (old streamed
    /// history, partially dirty) fill the frames the live sets will
    /// not use — they sit at the FIFO tail and are reclaimed first, so
    /// eviction and writeback behaviour is in steady state from the
    /// first measured cycle. Then every trace's resident set installs
    /// on top, round-robin across cores. Mirrors the paper's
    /// atomic-CPU fast-forward. Call once, before [`System::run`].
    pub fn prewarm(&mut self) {
        let per_core: Vec<Vec<nomad_types::Vpn>> = self
            .cores
            .iter()
            .map(|c| c.trace().resident_pages())
            .collect();
        let resident_total: usize = per_core.iter().map(Vec::len).sum();
        if let Some(free) = self.scheme.free_frames() {
            // A steady-state system's eviction daemon keeps a
            // threshold's worth of frames free; leave that slack.
            let slack = (free as usize) / 16;
            let spare = (free as usize)
                .saturating_sub(resident_total)
                .saturating_sub(slack);
            if spare > 0 && !self.cores.is_empty() {
                let per = spare.div_ceil(self.cores.len());
                let aged: Vec<Vec<(nomad_types::Vpn, bool)>> = self
                    .cores
                    .iter()
                    .map(|c| c.trace().aged_pages(per))
                    .collect();
                let longest = aged.iter().map(Vec::len).max().unwrap_or(0);
                let mut budget = spare;
                'outer: for i in 0..longest {
                    for (c, pages) in aged.iter().enumerate() {
                        if let Some(&(vpn, dirty)) = pages.get(i) {
                            if budget == 0 {
                                break 'outer;
                            }
                            budget -= 1;
                            let va = namespaced(vpn.base(), c);
                            self.scheme.prewarm(c, va.frame(), dirty);
                        }
                    }
                }
            }
        }
        let longest = per_core.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (c, pages) in per_core.iter().enumerate() {
                if let Some(vpn) = pages.get(i) {
                    let va = namespaced(vpn.base(), c);
                    self.scheme.prewarm(c, va.frame(), false);
                }
            }
        }
    }

    /// Accumulate the wall time since `*mark` into the profile counter
    /// `sel` picks, and restart the lap; no-op when the profile is off.
    fn lap(&mut self, mark: &mut Option<u64>, sel: fn(&mut HotProfile) -> &mut u64) {
        if let (Some(t), Some(h)) = (mark.as_mut(), self.hot.as_mut()) {
            let now = nomad_types::fastclock::now();
            *sel(h) += now.wrapping_sub(*t);
            *t = now;
        }
    }

    /// Advance the whole system by one CPU cycle.
    pub fn tick(&mut self) {
        let now = self.cycle;
        let mut mark = self.hot.as_ref().map(|_| nomad_types::fastclock::now());

        // 1. Cores: commit + fetch/dispatch.
        for core in &mut self.cores {
            core.tick(now);
        }

        // 2. Translation: finish ready walks, start new ones.
        self.process_walks(now);
        self.drain_dispatch(now);

        // 3. Inject translated ops into L1s.
        self.inject_issues(now);
        self.lap(&mut mark, |h| &mut h.cpu_raw);

        // 4. SRAM hierarchy.
        self.tick_caches(now);
        self.lap(&mut mark, |h| &mut h.cache_raw);

        // 5. Scheme + DRAM devices.
        self.ev.clear();
        {
            let mut flush = HierFlush {
                l1s: &mut self.l1s,
                l2s: &mut self.l2s,
                l3: &mut self.l3,
            };
            self.scheme
                .tick(now, &mut self.hbm, &mut self.ddr, &mut flush, &mut self.ev);
        }
        for resp in self.ev.responses.drain(..) {
            self.l3.push_resp(resp);
        }
        self.apply_shootdowns();
        let mut rewalk: Vec<CoreId> = Vec::new();
        for core_id in self.ev.wakes.drain(..) {
            self.cores[core_id].wake_os();
            rewalk.push(core_id);
        }
        for core_id in rewalk {
            // Blocked translations retry the walk next cycle.
            let ops = std::mem::take(&mut self.blocked[core_id]);
            for op in ops {
                self.walking[core_id].push(Walk {
                    op,
                    ready_at: now + 1,
                });
            }
        }
        self.lap(&mut mark, |h| &mut h.scheme_raw);
        if let Some(h) = self.hot.as_mut() {
            h.dense_ticks += 1;
        }

        if self.obs.as_ref().is_some_and(|o| now >= o.next_sample) {
            self.obs_sample(now);
        }
        self.cycle += 1;
        self.measured_cycles += 1;
    }

    /// Apply the scheme's forced TLB shootdowns (tiny-cache fallback
    /// path) to every core's TLBs, reporting departures back. Drains in
    /// place: the list is empty on almost every cycle.
    fn apply_shootdowns(&mut self) {
        for vpn in self.ev.shootdowns.drain(..) {
            for (c, tlb) in self.tlbs.iter_mut().enumerate() {
                if tlb.invalidate(vpn) {
                    for d in tlb.take_departures() {
                        self.scheme.tlb_departed(c, d.vpn);
                    }
                }
            }
        }
    }

    fn process_walks(&mut self, now: Cycle) {
        for c in 0..self.cores.len() {
            let mut i = 0;
            while i < self.walking[c].len() {
                if self.walking[c][i].ready_at > now {
                    i += 1;
                    continue;
                }
                let walk = self.walking[c].swap_remove(i);
                let vaddr = namespaced(walk.op.vaddr, c);
                let vpn = vaddr.frame();
                match self
                    .scheme
                    .walk(c, vpn, vaddr.sub_block(), walk.op.kind, now)
                {
                    nomad_dcache::WalkOutcome::Ready { entry } => {
                        self.tlbs[c].insert(entry);
                        self.scheme.tlb_inserted(c, vpn);
                        for d in self.tlbs[c].take_departures() {
                            self.scheme.tlb_departed(c, d.vpn);
                        }
                        let (addr, target) = resolve(entry.frame, vaddr);
                        self.issue_q[c].push(IssueEntry {
                            at: now,
                            op: walk.op,
                            addr,
                            target,
                        });
                    }
                    nomad_dcache::WalkOutcome::Blocked { reason } => {
                        self.cores[c].stall_os(Cycle::MAX, reason);
                        self.blocked[c].push(walk.op);
                    }
                }
            }
        }
    }

    fn drain_dispatch(&mut self, now: Cycle) {
        for c in 0..self.cores.len() {
            if !self.cores[c].dispatch_pending() {
                continue;
            }
            loop {
                let in_flight =
                    self.walking[c].len() + self.blocked[c].len() + self.issue_q[c].len();
                if in_flight >= self.cfg.max_walks_per_core + 8 {
                    break;
                }
                let Some(op) = self.cores[c].pop_dispatch() else {
                    break;
                };
                let vaddr = namespaced(op.vaddr, c);
                let vpn = vaddr.frame();
                match self.tlbs[c].lookup(vpn) {
                    TlbLookup::Hit { entry, latency } => {
                        let (addr, target) = resolve(entry.frame, vaddr);
                        self.issue_q[c].push(IssueEntry {
                            at: now + latency.saturating_sub(1),
                            op,
                            addr,
                            target,
                        });
                    }
                    TlbLookup::Miss { latency } => {
                        if self.walking[c].len() >= self.cfg.max_walks_per_core {
                            self.cores[c].push_back_dispatch(op);
                            break;
                        }
                        self.walking[c].push(Walk {
                            op,
                            ready_at: now + latency + self.tlbs[c].walk_latency(),
                        });
                    }
                }
            }
        }
    }

    fn inject_issues(&mut self, now: Cycle) {
        for c in 0..self.cores.len() {
            let mut i = 0;
            while i < self.issue_q[c].len() {
                let e = self.issue_q[c][i];
                if e.at > now || !self.l1s[c].can_accept() {
                    i += 1;
                    continue;
                }
                self.issue_q[c].swap_remove(i);
                let is_read = e.op.kind == AccessKind::Read;
                self.l1s[c].push_req(
                    MemReq {
                        token: ReqId(e.op.slot),
                        addr: e.addr,
                        target: e.target,
                        kind: e.op.kind,
                        class: if is_read {
                            TrafficClass::DemandRead
                        } else {
                            TrafficClass::DemandWrite
                        },
                        core: c,
                        wants_response: is_read,
                    },
                    now,
                );
            }
        }
    }

    fn tick_caches(&mut self, now: Cycle) {
        for c in 0..self.cores.len() {
            self.l1s[c].tick(now);
            // L1 → L2.
            while self.l2s[c].can_accept() {
                match self.l1s[c].pop_to_lower() {
                    Some(req) => self.l2s[c].push_req(req, now),
                    None => break,
                }
            }
            self.l2s[c].tick(now);
            // L2 → L3.
            while self.l3.can_accept() {
                if self.l2s[c].peek_to_lower().is_none() {
                    break;
                }
                let req = self.l2s[c].pop_to_lower().expect("peeked");
                self.l3.push_req(req, now);
            }
        }
        self.l3.tick(now);
        // L3 → scheme.
        while self.scheme.can_accept() {
            let Some(req) = self.l3.pop_to_lower() else {
                break;
            };
            self.scheme.access(
                DcAccessReq {
                    token: req.token,
                    addr: req.addr,
                    target: req.target,
                    kind: req.kind,
                    core: req.core,
                    wants_response: req.wants_response,
                },
                now,
            );
        }
        // Responses upward: L3 → L2 (by core) → L1 → core.
        while let Some(resp) = self.l3.pop_to_upper(now) {
            self.l2s[resp.core].push_resp(resp);
        }
        for c in 0..self.cores.len() {
            while let Some(resp) = self.l2s[c].pop_to_upper(now) {
                self.l1s[c].push_resp(resp);
            }
            while let Some(resp) = self.l1s[c].pop_to_upper(now) {
                if resp.kind == AccessKind::Read {
                    self.cores[c].mem_done(resp.token.0);
                }
            }
        }
    }

    /// Refresh every wheel source from post-tick component state
    /// (`now = self.cycle - 1`, the cycle the just-finished tick ran
    /// as, matching the [`NextActivity`] contract), then slide the
    /// near window. Called at kernel decision points — the moment the
    /// kernel knows any component's deadline may have changed. The
    /// wheel's idempotent `set` makes unchanged sources free to
    /// re-push.
    ///
    /// Source layout for `n` cores: `0..n` are per-core cpu clusters
    /// (core state plus pending dispatch, in-flight walks and
    /// translated issues), `n..2n` the L1s, `2n..3n` the L2s, then
    /// L3, the scheme, HBM and DDR. Everything before the scheme is
    /// "cpu-side": the burst loop requires all of it inactive.
    fn refresh_wheel(&mut self) {
        let now = self.cycle - 1;
        let floor = now + 1;
        let n = self.cores.len();
        self.wheel.advance_to(now);
        for c in 0..n {
            let mut t = self.cores[c].next_activity_at(now).unwrap_or(Cycle::MAX);
            if self.cores[c].dispatch_pending() {
                t = floor;
            }
            for w in &self.walking[c] {
                t = t.min(w.ready_at);
            }
            for e in &self.issue_q[c] {
                t = t.min(e.at);
            }
            // `blocked` ops are reactive: their cores sleep until a
            // scheme wake, which the scheme's own activity covers.
            self.wheel.set(c, (t != Cycle::MAX).then(|| t.max(floor)));
            let l1 = self.l1s[c].next_activity_at(now).map(|t| t.max(floor));
            self.wheel.set(n + c, l1);
            let l2 = self.l2s[c].next_activity_at(now).map(|t| t.max(floor));
            self.wheel.set(2 * n + c, l2);
        }
        self.wheel
            .set(3 * n, self.l3.next_activity_at(now).map(|t| t.max(floor)));
        self.wheel.set(
            3 * n + 1,
            self.scheme.next_activity_at(now).map(|t| t.max(floor)),
        );
        // Devices count tick invocations: post-tick their `cpu_cycle`
        // is `self.cycle`, and a predicted edge at count `k` fires
        // during the tick of system cycle `k - 1`.
        self.wheel.set(
            3 * n + 2,
            self.hbm
                .next_activity_at(self.cycle)
                .map(|t| (t - 1).max(floor)),
        );
        self.wheel.set(
            3 * n + 3,
            self.ddr
                .next_activity_at(self.cycle)
                .map(|t| (t - 1).max(floor)),
        );
    }

    /// Earliest live deadline among the cpu-side wheel sources
    /// (everything except the scheme and the DRAM devices), or `None`
    /// when the whole cpu side is inert. Until this cycle, tick phases
    /// 1–4 are pure stall accounting — the burst-eligibility bound.
    #[inline]
    fn cpu_side_next(&self) -> Option<Cycle> {
        let mut live = self.wheel.live_mask() & ((1u64 << (3 * self.cores.len() + 1)) - 1);
        let mut next: Option<Cycle> = None;
        while live != 0 {
            let src = live.trailing_zeros() as usize;
            let t = self.wheel.deadline(src).expect("live source has deadline");
            next = Some(next.map_or(t, |n| n.min(t)));
            live &= live - 1;
        }
        next
    }

    /// Earliest cycle at which ticking the system again could do more
    /// than constant-rate stat accounting, given the post-tick state,
    /// or `None` when every component is quiescent (only the deadlock
    /// horizon bounds the skip then). All results are `> self.cycle - 1`,
    /// i.e. candidate cycles for the *next* tick.
    ///
    /// This is the pre-wheel pull-based min-scan, kept as the
    /// differential oracle for the timing wheel: test and debug builds
    /// assert at every kernel decision point that the wheel's chosen
    /// next event equals this scan's.
    #[cfg(any(test, debug_assertions))]
    fn next_event_at_scan(&self) -> Option<Cycle> {
        // `self.cycle` was already incremented by the tick we are
        // summarizing; components speak the NextActivity contract
        // relative to the cycle that just ran.
        let now = self.cycle - 1;
        let mut next: Option<Cycle> = None;
        let mut consider = |t: Cycle| {
            let t = t.max(now + 1);
            next = Some(next.map_or(t, |n: Cycle| n.min(t)));
        };
        for (c, core) in self.cores.iter().enumerate() {
            if let Some(t) = core.next_activity_at(now) {
                consider(t);
            }
            if core.dispatch_pending() {
                consider(now + 1);
            }
            for w in &self.walking[c] {
                consider(w.ready_at);
            }
            for e in &self.issue_q[c] {
                consider(e.at);
            }
            // `blocked` ops are reactive: their cores sleep until a
            // scheme wake, which the scheme's own activity covers.
        }
        for lvl in self.l1s.iter().chain(self.l2s.iter()) {
            if let Some(t) = lvl.next_activity_at(now) {
                consider(t);
            }
        }
        if let Some(t) = self.l3.next_activity_at(now) {
            consider(t);
        }
        if let Some(t) = self.scheme.next_activity_at(now) {
            consider(t);
        }
        // Devices count tick invocations: post-tick their `cpu_cycle`
        // is `self.cycle`, and a predicted edge at count `k` fires
        // during the tick of system cycle `k - 1`.
        for dev in [&self.hbm, &self.ddr] {
            if let Some(t) = dev.next_activity_at(self.cycle) {
                consider(t - 1);
            }
        }
        next
    }

    /// Jump over `delta` cycles in which [`next_event_at`](Self::next_event_at)
    /// guarantees dense ticking would only have done constant-rate stat
    /// accounting, applying that accounting in bulk.
    fn skip(&mut self, delta: Cycle) {
        for core in &mut self.cores {
            core.idle_advance(delta);
        }
        self.hbm.advance(delta);
        self.ddr.advance(delta);
        self.cycle += delta;
        self.measured_cycles += delta;
        if let Some(h) = self.hot.as_mut() {
            h.skips += 1;
            h.skipped_cycles += delta;
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.skip_span.record(delta);
        }
        // A skip can jump over one or more sample points; take one
        // catch-up snapshot at the landing cycle (series timestamps are
        // real cycles, so an off-boundary row is fine).
        if self
            .obs
            .as_ref()
            .is_some_and(|o| self.cycle >= o.next_sample)
        {
            self.obs_sample(self.cycle);
        }
    }

    /// Run until every core has committed `instructions_per_core` more
    /// instructions, using next-event skipping between dense ticks.
    ///
    /// # Panics
    ///
    /// Panics if no core commits anything for 3 million cycles (a
    /// deadlock in the modeled system).
    pub fn run(&mut self, instructions_per_core: u64) {
        self.run_inner(instructions_per_core, None);
    }

    /// [`run`](Self::run) with cooperative cancellation: `cancel` is
    /// polled at event boundaries (roughly every thousand dense ticks)
    /// and a cancelled token makes the run return `false` promptly,
    /// leaving the system in a consistent (if unfinished) state.
    ///
    /// # Panics
    ///
    /// Panics on the same deadlock condition as [`run`](Self::run).
    pub fn run_with_cancel(&mut self, instructions_per_core: u64, cancel: &CancelToken) -> bool {
        self.run_inner(instructions_per_core, Some(cancel))
    }

    fn run_inner(&mut self, instructions_per_core: u64, cancel: Option<&CancelToken>) -> bool {
        let targets: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.stats().instructions.get() + instructions_per_core)
            .collect();
        let mut last_progress = self.cycle;
        let mut last_total = self.total_instructions();
        let mut iters: u64 = 0;
        // Query pacing: when next-event queries keep answering "no
        // skip" (e.g. a busy DRAM device pins activity to every device
        // edge), back off exponentially and tick densely in between —
        // dense ticks are the reference semantics, so pacing can only
        // trade away skip opportunities, never correctness.
        let mut requery_in: u64 = 0;
        let mut noskip_streak: u32 = 0;
        loop {
            let done = self
                .cores
                .iter()
                .zip(&targets)
                .all(|(c, t)| c.stats().instructions.get() >= *t);
            if done {
                return true;
            }
            if let Some(token) = cancel {
                iters = iters.wrapping_add(1);
                if iters & 1023 == 0 && token.is_cancelled() {
                    return false;
                }
            }
            self.tick();
            let total = self.total_instructions();
            if total != last_total {
                last_total = total;
                last_progress = self.cycle;
                // Hot path: a committing system is almost always busy
                // again next cycle, so skip the (read-only, but not
                // free) next-event query and just tick. Ticking a
                // skippable cycle densely is always parity-safe — the
                // dense loop *is* the reference semantics. The pacing
                // streak deliberately survives commits: it only grows
                // while queries keep failing, and a committing dense
                // region is exactly where the next query will fail
                // again. Successful skips/bursts reset it below.
                continue;
            } else if self.cycle - last_progress > 3_000_000 {
                panic!(
                    "system deadlock: no commit for 3M cycles (scheme {}, cycle {})",
                    self.scheme.name(),
                    self.cycle
                );
            }
            // Next-event skip. The deadlock horizon is the last cycle a
            // dense loop would still tick before its no-progress check
            // fires, so a genuinely dead system panics at the identical
            // cycle. Never skip past a completed run: re-check the
            // targets first (the loop head would break without ticking).
            let done = self
                .cores
                .iter()
                .zip(&targets)
                .all(|(c, t)| c.stats().instructions.get() >= *t);
            if done {
                continue;
            }
            if requery_in > 0 {
                requery_in -= 1;
                continue;
            }
            let horizon = last_progress + 3_000_000;
            self.refresh_wheel();
            let next = self.wheel.peek_next();
            #[cfg(any(test, debug_assertions))]
            assert_eq!(
                next,
                self.next_event_at_scan(),
                "timing wheel diverged from the min-scan oracle at cycle {}",
                self.cycle
            );
            let target = match next {
                Some(t) => t.min(horizon),
                None => horizon,
            };
            // A skip replaces `delta` dense ticks with one query plus
            // one bulk advance; for tiny deltas (a busy DRAM device
            // bounds skips to its next edge, 2-3 cycles away) the
            // machinery costs more than the ticks it saves. Tick those
            // densely instead — dense ticking is always parity-safe.
            let cpu_next = self.cpu_side_next().unwrap_or(Cycle::MAX);
            if target > self.cycle {
                let delta = target - self.cycle;
                self.skip(delta);
                if delta >= MIN_BURST {
                    noskip_streak = 0;
                } else {
                    // A tiny skip (a busy DRAM device grinding from
                    // edge to edge) saves fewer ticks than the query
                    // cost it took to find; pace those like no-skip
                    // outcomes so dense ticks amortize the next query.
                    noskip_streak = noskip_streak.saturating_add(1);
                    requery_in = 1u64 << (noskip_streak.min(6) - 1);
                }
            } else if cpu_next >= self.cycle + MIN_BURST {
                // Dense region, but the whole cpu side is inert until
                // `cpu_next`: run it as a scheme/DRAM-only burst
                // instead of full ticks. Short quiet windows are not
                // worth it — the burst ends with another full wheel
                // refresh, which must be amortized over the cycles the
                // burst wins, so tiny ones fall through to the dense
                // backoff below, and a burst cut short by scheme
                // events (a migration spraying responses) paces the
                // next query like a no-skip outcome.
                let start = self.cycle;
                if !self.burst(cpu_next, horizon, cancel, &mut iters) {
                    return false;
                }
                if self.cycle - start >= MIN_BURST {
                    noskip_streak = 0;
                } else {
                    noskip_streak = noskip_streak.saturating_add(1);
                    requery_in = 1u64 << (noskip_streak.min(6) - 1);
                }
            } else {
                // Nothing to skip right now; wait 1, 2, 4, … 32 dense
                // ticks (any commit resets the pacing immediately)
                // before paying for the next query.
                noskip_streak = noskip_streak.saturating_add(1);
                requery_in = 1u64 << (noskip_streak.min(6) - 1);
            }
        }
    }

    /// Execute a cpu-quiet dense region as a scheme/DRAM-only burst.
    ///
    /// Entered only when every cpu-side wheel source is inert until
    /// `until` (exclusive): the cores are stalled with nothing
    /// dispatchable before then, no walk or translated issue matures
    /// before then, and the whole SRAM hierarchy reports no earlier
    /// self-driven work. Under the NextActivity contract that makes
    /// tick phases 1–4 pure stall accounting for every cycle before
    /// `until` — and cpu-side deadlines cannot move *earlier* during
    /// the burst, because the only thing that changes cpu-side state
    /// is a phase-5 delivery, which ends the burst. So each burst
    /// cycle runs phase 5 alone, accumulates the cores' stall
    /// accounting, and stops at `until` or the moment the scheme emits
    /// anything cpu-visible (responses, shootdowns, wakes): the first
    /// cycle whose phases 1–4 could stop being no-ops is then ticked
    /// densely by the caller. Stall accounting is flushed *before*
    /// wakes are applied, matching dense ordering (phase 1 of the
    /// final cycle ran, still stalled, before phase 5 produced the
    /// wake).
    ///
    /// Returns `false` when `cancel` fired; the deadlock `horizon`
    /// bounds the burst exactly like it bounds skips.
    fn burst(
        &mut self,
        until: Cycle,
        horizon: Cycle,
        cancel: Option<&CancelToken>,
        iters: &mut u64,
    ) -> bool {
        let mut mark = self.hot.as_ref().map(|_| nomad_types::fastclock::now());
        let mut pending_idle: Cycle = 0;
        let mut burst_len: u64 = 0;
        let mut cancelled = false;
        loop {
            if self.cycle >= until || self.cycle > horizon {
                // Cpu side about to matter (or the no-progress panic is
                // due): hand back to the full-tick loop.
                break;
            }
            if let Some(token) = cancel {
                *iters = iters.wrapping_add(1);
                if *iters & 1023 == 0 && token.is_cancelled() {
                    cancelled = true;
                    break;
                }
            }
            let now = self.cycle;
            pending_idle += 1;
            burst_len += 1;

            self.ev.clear();
            {
                let mut flush = HierFlush {
                    l1s: &mut self.l1s,
                    l2s: &mut self.l2s,
                    l3: &mut self.l3,
                };
                self.scheme
                    .tick(now, &mut self.hbm, &mut self.ddr, &mut flush, &mut self.ev);
            }
            let cpu_visible = !self.ev.responses.is_empty()
                || !self.ev.shootdowns.is_empty()
                || !self.ev.wakes.is_empty();
            if cpu_visible {
                for core in &mut self.cores {
                    core.idle_advance(pending_idle);
                }
                pending_idle = 0;
            }
            for resp in self.ev.responses.drain(..) {
                self.l3.push_resp(resp);
            }
            self.apply_shootdowns();
            let mut rewalk: Vec<CoreId> = Vec::new();
            for core_id in self.ev.wakes.drain(..) {
                self.cores[core_id].wake_os();
                rewalk.push(core_id);
            }
            for core_id in rewalk {
                let ops = std::mem::take(&mut self.blocked[core_id]);
                for op in ops {
                    self.walking[core_id].push(Walk {
                        op,
                        ready_at: now + 1,
                    });
                }
            }

            if self.obs.as_ref().is_some_and(|o| now >= o.next_sample) {
                // Gauges read live core state; bring the bulk stall
                // accounting current before snapshotting.
                if pending_idle > 0 {
                    for core in &mut self.cores {
                        core.idle_advance(pending_idle);
                    }
                    pending_idle = 0;
                }
                self.obs_sample(now);
            }
            self.cycle += 1;
            self.measured_cycles += 1;
            if cpu_visible {
                break;
            }
        }
        if pending_idle > 0 {
            for core in &mut self.cores {
                core.idle_advance(pending_idle);
            }
        }
        self.lap(&mut mark, |h| &mut h.scheme_raw);
        if let Some(h) = self.hot.as_mut() {
            h.burst_ticks += burst_len;
        }
        !cancelled
    }

    /// The pre-event-kernel reference loop: tick every cycle with no
    /// skipping. Kept as the parity oracle — event-kernel runs must
    /// produce byte-identical [`RunReport`]s to this path.
    ///
    /// # Panics
    ///
    /// Panics on the same deadlock condition as [`run`](Self::run).
    pub fn run_dense(&mut self, instructions_per_core: u64) {
        let targets: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.stats().instructions.get() + instructions_per_core)
            .collect();
        let mut last_progress = self.cycle;
        let mut last_total = self.total_instructions();
        loop {
            let done = self
                .cores
                .iter()
                .zip(&targets)
                .all(|(c, t)| c.stats().instructions.get() >= *t);
            if done {
                break;
            }
            self.tick();
            let total = self.total_instructions();
            if total != last_total {
                last_total = total;
                last_progress = self.cycle;
            } else if self.cycle - last_progress > 3_000_000 {
                panic!(
                    "system deadlock: no commit for 3M cycles (scheme {}, cycle {})",
                    self.scheme.name(),
                    self.cycle
                );
            }
        }
    }

    /// Run a warm-up phase then reset all statistics, mirroring the
    /// paper's fast-forward-to-ROI protocol.
    pub fn warm_up(&mut self, instructions_per_core: u64) {
        self.run(instructions_per_core);
        self.reset_stats();
    }

    /// Reset every statistic in the system (cores, caches, devices,
    /// scheme); simulation state is preserved.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.reset_stats();
        }
        for c in self.l1s.iter_mut().chain(self.l2s.iter_mut()) {
            c.reset_stats();
        }
        self.l3.reset_stats();
        self.hbm.reset_stats();
        self.ddr.reset_stats();
        self.scheme.reset_stats();
        self.measured_cycles = 0;
        if let Some(h) = self.hot.as_mut() {
            *h = HotProfile::default();
            self.hbm.reset_profile();
            self.ddr.reset_profile();
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.registry.reset_values();
            obs.ring.clear();
            obs.log.clear();
            obs.next_sample = self.cycle - self.cycle % obs.interval + obs.interval;
        }
    }

    /// Snapshot a report of the measured window. Observed systems get
    /// their rendered [`ObsSeries`] attached; un-observed reports are
    /// byte-identical to pre-instrumentation ones.
    pub fn report(&self, workload: &str) -> RunReport {
        let mut report = RunReport::collect(
            workload,
            self.scheme.name(),
            self.cfg.clock_ghz,
            self.measured_cycles,
            &self.cores,
            &self.l3,
            self.scheme.stats(),
            self.hbm.stats(),
            self.ddr.stats(),
        );
        report.obs = self.obs_series(&format!("{workload} {}", self.scheme.name()));
        report
    }
}

/// Resolve a TLB frame mapping plus page offset into a device block
/// address.
fn resolve(frame: nomad_cache::FrameKind, vaddr: VirtAddr) -> (BlockAddr, MemTarget) {
    match frame {
        nomad_cache::FrameKind::Phys(pfn) => (
            BlockAddr::containing(pfn.with_offset(vaddr.page_offset()).raw()),
            MemTarget::OffPackage,
        ),
        nomad_cache::FrameKind::Cache(cfn) => (
            BlockAddr::containing(cfn.with_offset(vaddr.page_offset()).raw()),
            MemTarget::DramCache,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SchemeSpec;
    use nomad_trace::{SyntheticTrace, WorkloadProfile};

    fn build(spec: &SchemeSpec, profile: &WorkloadProfile, seed: u64) -> System {
        let mut cfg = SystemConfig::scaled(1);
        cfg.dc_capacity = 4 * 1024 * 1024;
        let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
            .map(|i| {
                Box::new(SyntheticTrace::with_scale(
                    profile,
                    seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9),
                    cfg.pages_per_gb,
                    cfg.l3_reach_pages(),
                )) as Box<dyn TraceSource>
            })
            .collect();
        let mut sys = System::new(cfg.clone(), spec.build(&cfg), traces);
        sys.prewarm();
        sys
    }

    /// The wheel's chosen next event must equal the legacy pull-based
    /// min-scan after *every* tick, on every scheme — not just at the
    /// kernel's own (paced) decision points, which the inline
    /// `run_inner` assert already covers. Dense ticking visits states
    /// the paced kernel never queries, so this is the stronger
    /// differential: wheel refresh is sound at arbitrary cycles, busy
    /// or quiet, mid-fault or mid-migration.
    #[test]
    fn wheel_matches_min_scan_after_every_tick_on_all_schemes() {
        for spec in [
            SchemeSpec::Baseline,
            SchemeSpec::Tid,
            SchemeSpec::Tdram,
            SchemeSpec::Banshee,
            SchemeSpec::Tdc,
            SchemeSpec::Nomad,
        ] {
            for profile in [WorkloadProfile::tc(), WorkloadProfile::mcf()] {
                let mut sys = build(&spec, &profile, 42);
                for _ in 0..6_000 {
                    sys.tick();
                    sys.refresh_wheel();
                    assert_eq!(
                        sys.wheel.peek_next(),
                        sys.next_event_at_scan(),
                        "wheel vs min-scan divergence: scheme {} workload {} cycle {}",
                        sys.scheme.name(),
                        profile.name,
                        sys.cycle
                    );
                }
            }
        }
    }

    /// Same differential through the event kernel's *skips*: after a
    /// bulk advance lands the system on an event cycle, the wheel must
    /// still agree with the scan (the skip must not have destroyed or
    /// invented activity).
    #[test]
    fn wheel_matches_min_scan_across_skips() {
        for spec in [SchemeSpec::Baseline, SchemeSpec::Nomad] {
            let mut sys = build(&spec, &WorkloadProfile::mcf(), 7);
            for _ in 0..2_000 {
                sys.tick();
                sys.refresh_wheel();
                let next = sys.wheel.peek_next();
                assert_eq!(next, sys.next_event_at_scan());
                if let Some(t) = next {
                    if t > sys.cycle {
                        sys.skip(t - sys.cycle);
                        sys.refresh_wheel();
                        assert_eq!(
                            sys.wheel.peek_next(),
                            sys.next_event_at_scan(),
                            "post-skip divergence: scheme {} cycle {}",
                            sys.scheme.name(),
                            sys.cycle
                        );
                    }
                }
            }
        }
    }
}
