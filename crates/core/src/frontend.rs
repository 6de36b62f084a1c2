//! The NOMAD front-end: OS routines for DC tag management.
//!
//! Two routines run under the cache-frame-management mutex
//! (Algorithms 1 and 2 of the paper):
//!
//! * the **DC tag-miss handler** — allocates a cache frame from the
//!   circular free queue's head, offloads a cache-fill command to the
//!   back-end (waiting while the interface is busy), rewrites the
//!   PTE's PFN to the new CFN, and resumes the thread;
//! * the **background eviction daemon** — armed when free frames drop
//!   below a threshold; reclaims a batch from the queue's tail,
//!   skipping TLB-resident frames (shootdown avoidance) and frames
//!   with in-flight copies, flushing their SRAM lines, restoring PTEs
//!   through reverse mappings and offloading writeback commands for
//!   dirty frames.
//!
//! In NOMAD the mutex serializes the routines (`serialized_handler`),
//! which is exactly what grows the observed tag-management latency
//! from the 400-cycle floor to several thousand cycles under bursty
//! miss traffic (paper §IV-B, Figs. 11/14). The TDC model instead locks
//! only per-PTE state, so handlers run in parallel with no extra
//! penalty (§IV-A).

use crate::backend::{CopyCommand, CopyKind};
use crate::config::NomadConfig;
use nomad_cache::PageTable;
use nomad_dcache::CacheFlush;
use nomad_dcache::{CacheFrames, EvictCandidate};
use nomad_types::{Cfn, CoreId, Cycle, FxHashSet, Pfn, SubBlockIdx, Vpn};
use std::collections::VecDeque;

/// Access to the back-end interface(s), implemented by the scheme
/// (routes commands to the right back-end in the distributed design).
pub trait BackendCtl {
    /// Offer a command to the interface; `false` means busy.
    fn try_send(&mut self, cmd: CopyCommand) -> bool;
    /// Whether a page copy is in flight for `cfn`.
    fn busy_cfn(&self, cfn: Cfn) -> bool;
}

/// Front-end configuration subset + derived values.
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    pub(crate) tag_mgmt_cycles: Cycle,
    pub(crate) probe_cost: Cycle,
    pub(crate) serialized: bool,
    pub(crate) eviction_threshold: usize,
    pub(crate) eviction_batch: usize,
    pub(crate) evict_page_cost: Cycle,
    pub(crate) evict_batch_cost: Cycle,
    pub(crate) critical_data_first: bool,
}

impl From<&NomadConfig> for FrontendConfig {
    fn from(c: &NomadConfig) -> Self {
        FrontendConfig {
            tag_mgmt_cycles: c.tag_mgmt_cycles,
            probe_cost: c.probe_cost,
            serialized: c.serialized_handler,
            eviction_threshold: c.eviction_threshold,
            eviction_batch: c.eviction_batch,
            evict_page_cost: c.evict_page_cost,
            evict_batch_cost: c.evict_batch_cost,
            critical_data_first: c.critical_data_first,
        }
    }
}

/// A DC tag miss whose handler finished this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandledTagMiss {
    /// Core whose access faulted first.
    pub core: CoreId,
    /// Faulting virtual page.
    pub vpn: Vpn,
    /// Allocated cache frame.
    pub cfn: Cfn,
    /// Cycle the miss entered the handler queue.
    pub enqueued: Cycle,
    /// Cycle the handler completed (PTE updated, thread resumable).
    pub completed: Cycle,
    /// Cycles spent waiting for the back-end interface.
    pub interface_wait: Cycle,
}

/// Events produced by one front-end tick.
#[derive(Debug, Default)]
pub struct FrontendEvents {
    /// Tag misses resolved this cycle.
    pub handled: Vec<HandledTagMiss>,
    /// Frames reclaimed this cycle (for stats).
    pub evicted: usize,
    /// Eviction-daemon runs started this cycle.
    pub daemon_runs: usize,
    /// VPNs whose TLB entries must be shot down (forced reclamation of
    /// TLB-resident frames; only happens when the DRAM cache is
    /// smaller than the combined TLB reach).
    pub shootdowns: Vec<Vpn>,
}

impl FrontendEvents {
    /// Clear for reuse.
    pub fn clear(&mut self) {
        self.handled.clear();
        self.evicted = 0;
        self.daemon_runs = 0;
        self.shootdowns.clear();
    }
}

#[derive(Debug)]
struct TagMissJob {
    core: CoreId,
    vpn: Vpn,
    pfn: Pfn,
    write: bool,
    priority: SubBlockIdx,
    enqueued: Cycle,
}

#[derive(Debug)]
enum Job {
    TagMiss(TagMissJob),
    Daemon,
}

#[derive(Debug)]
struct ActiveTagMiss {
    job: TagMissJob,
    cfn: Cfn,
    work_done_at: Cycle,
    sent: bool,
    interface_wait: Cycle,
}

/// The front-end OS state: free queue + CPDs, page table, handler
/// queue and eviction daemon.
#[derive(Debug)]
pub struct Frontend {
    cfg: FrontendConfig,
    frames: CacheFrames,
    page_table: PageTable,
    queue: VecDeque<Job>,
    active: Vec<ActiveTagMiss>,
    daemon_until: Option<Cycle>,
    daemon_queued: bool,
    pending_vpns: FxHashSet<u64>,
    deferred_wb: VecDeque<CopyCommand>,
    /// Reusable eviction-victim buffer, shared by the daemon body and
    /// the handler's emergency/force reclamation paths.
    evict_scratch: Vec<EvictCandidate>,
}

impl Frontend {
    /// Build the front-end for `frames` cache frames.
    pub fn new(cfg: FrontendConfig, frames: usize) -> Self {
        Frontend {
            cfg,
            frames: CacheFrames::new(frames),
            page_table: PageTable::new(),
            queue: VecDeque::new(),
            active: Vec::new(),
            daemon_until: None,
            daemon_queued: false,
            pending_vpns: FxHashSet::default(),
            deferred_wb: VecDeque::new(),
            evict_scratch: Vec::new(),
        }
    }

    /// The OS page table.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// Read-only page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The cache-frame descriptors / free queue.
    pub fn frames_mut(&mut self) -> &mut CacheFrames {
        &mut self.frames
    }

    /// Read-only frame state.
    pub fn frames(&self) -> &CacheFrames {
        &self.frames
    }

    /// Whether a tag miss for `vpn` is already queued or being handled.
    pub fn vpn_pending(&self, vpn: Vpn) -> bool {
        self.pending_vpns.contains(&vpn.raw())
    }

    /// Enqueue a DC tag miss (deduplicated by VPN). Returns `true` if a
    /// new handler job was created.
    pub fn note_tag_miss(
        &mut self,
        core: CoreId,
        vpn: Vpn,
        pfn: Pfn,
        priority: SubBlockIdx,
        write: bool,
        now: Cycle,
    ) -> bool {
        if !self.pending_vpns.insert(vpn.raw()) {
            return false;
        }
        self.queue.push_back(Job::TagMiss(TagMissJob {
            core,
            vpn,
            pfn,
            write,
            priority,
            enqueued: now,
        }));
        true
    }

    /// Pending handler-queue length (mutex backlog).
    pub fn queue_len(&self) -> usize {
        self.queue.len() + self.active.len()
    }

    fn mutex_free(&self) -> bool {
        if !self.cfg.serialized {
            return true;
        }
        self.active.is_empty() && self.daemon_until.is_none()
    }

    /// Reclaim up to `n` frames immediately (daemon body and the
    /// handler's emergency path). Returns `(reclaimed, dirty)`.
    fn reclaim(
        &mut self,
        n: usize,
        backends: &mut dyn BackendCtl,
        flush: &mut dyn CacheFlush,
        events: &mut FrontendEvents,
    ) -> (usize, usize) {
        let mut victims = std::mem::take(&mut self.evict_scratch);
        victims.clear();
        self.frames
            .evict_batch_filtered_into(n, |cfn| backends.busy_cfn(cfn), &mut victims);
        let mut dirty_count = 0;
        for v in &victims {
            let (_, dirty_lines) = flush.flush_dc_page(v.cfn.raw());
            self.page_table.uncache_all(v.cpd.pfn);
            if v.cpd.dirty || dirty_lines > 0 {
                dirty_count += 1;
                self.deferred_wb.push_back(CopyCommand {
                    kind: CopyKind::Writeback,
                    pfn: v.cpd.pfn,
                    cfn: v.cfn,
                    priority: None,
                });
            }
        }
        events.evicted += victims.len();
        let reclaimed = victims.len();
        self.evict_scratch = victims;
        (reclaimed, dirty_count)
    }

    fn arm_daemon_if_needed(&mut self) {
        if self.frames.num_free() < self.cfg.eviction_threshold
            && !self.daemon_queued
            && self.daemon_until.is_none()
        {
            self.daemon_queued = true;
            self.queue.push_back(Job::Daemon);
        }
    }

    /// Advance one cycle.
    pub fn tick(
        &mut self,
        now: Cycle,
        backends: &mut dyn BackendCtl,
        flush: &mut dyn CacheFlush,
        events: &mut FrontendEvents,
    ) {
        // Daemon completion.
        if let Some(until) = self.daemon_until {
            if now >= until {
                self.daemon_until = None;
            }
        }

        // Start queued jobs while the mutex allows.
        while !self.queue.is_empty() && self.mutex_free() {
            match self.queue.pop_front().expect("non-empty") {
                Job::TagMiss(job) => {
                    let mut penalty = 0;
                    let alloc = match self.frames.allocate(job.pfn) {
                        Some(a) => Some(a),
                        None => {
                            // Emergency synchronous reclamation: the
                            // daemon fell behind a miss burst.
                            let (got, _) =
                                self.reclaim(self.cfg.eviction_batch, backends, flush, events);
                            penalty =
                                got as u64 * self.cfg.evict_page_cost + self.cfg.evict_batch_cost;
                            self.frames.allocate(job.pfn)
                        }
                    };
                    // Last resort: every reclaimable frame's
                    // translation sits in a TLB (cache smaller than
                    // the TLB reach) — force eviction with shootdowns.
                    let alloc = match alloc {
                        Some(a) => Some(a),
                        None => {
                            let mut victims = std::mem::take(&mut self.evict_scratch);
                            victims.clear();
                            self.frames.evict_batch_force_into(
                                self.cfg.eviction_batch,
                                |cfn| backends.busy_cfn(cfn),
                                &mut victims,
                            );
                            for v in &victims {
                                flush.flush_dc_page(v.cfn.raw());
                                for &vpn in self.page_table.reverse_map(v.cpd.pfn) {
                                    events.shootdowns.push(Vpn(vpn));
                                }
                                self.page_table.uncache_all(v.cpd.pfn);
                                if v.cpd.dirty {
                                    self.deferred_wb.push_back(CopyCommand {
                                        kind: CopyKind::Writeback,
                                        pfn: v.cpd.pfn,
                                        cfn: v.cfn,
                                        priority: None,
                                    });
                                }
                            }
                            events.evicted += victims.len();
                            // A shootdown protocol round-trip per batch.
                            penalty += 500 + victims.len() as u64 * self.cfg.evict_page_cost;
                            self.evict_scratch = victims;
                            self.frames.allocate(job.pfn)
                        }
                    };
                    let Some((cfn, probes)) = alloc else {
                        // Every frame has a copy in flight: retry next
                        // cycle (the copies complete without the OS).
                        self.queue.push_front(Job::TagMiss(job));
                        break;
                    };
                    let work_done_at = now
                        + self.cfg.tag_mgmt_cycles
                        + probes as u64 * self.cfg.probe_cost
                        + penalty;
                    self.active.push(ActiveTagMiss {
                        job,
                        cfn,
                        work_done_at,
                        sent: false,
                        interface_wait: 0,
                    });
                    self.arm_daemon_if_needed();
                    if self.cfg.serialized {
                        break;
                    }
                }
                Job::Daemon => {
                    self.daemon_queued = false;
                    let (got, _) = self.reclaim(self.cfg.eviction_batch, backends, flush, events);
                    let duration =
                        self.cfg.evict_batch_cost + got as u64 * self.cfg.evict_page_cost;
                    events.daemon_runs += 1;
                    if self.cfg.serialized {
                        self.daemon_until = Some(now + duration);
                        break;
                    }
                    // Parallel (TDC) mode: the daemon does not hold a
                    // global mutex; its cost is off the critical path.
                }
            }
        }

        // Progress active tag-miss handlers.
        let mut i = 0;
        while i < self.active.len() {
            let a = &mut self.active[i];
            if !a.sent {
                let priority = self.cfg.critical_data_first.then_some(a.job.priority);
                if backends.try_send(CopyCommand {
                    kind: CopyKind::Fill,
                    pfn: a.job.pfn,
                    cfn: a.cfn,
                    priority,
                }) {
                    a.sent = true;
                } else {
                    a.interface_wait += 1;
                }
            }
            let done = a.sent && now >= a.work_done_at;
            if done {
                let a = self.active.swap_remove(i);
                // Lines 7–10 of Algorithm 1: PTE/CPD updates (handles
                // shared pages through the reverse mapping).
                self.page_table.cache_all(a.job.pfn, a.cfn);
                if a.job.write {
                    self.frames.set_dirty(a.cfn);
                }
                self.pending_vpns.remove(&a.job.vpn.raw());
                events.handled.push(HandledTagMiss {
                    core: a.job.core,
                    vpn: a.job.vpn,
                    cfn: a.cfn,
                    enqueued: a.job.enqueued,
                    completed: now.max(a.work_done_at),
                    interface_wait: a.interface_wait,
                });
            } else {
                i += 1;
            }
        }

        // Offload deferred writeback commands as the interface allows
        // (fills were given priority above).
        while let Some(cmd) = self.deferred_wb.front() {
            if backends.try_send(*cmd) {
                self.deferred_wb.pop_front();
            } else {
                break;
            }
        }

        self.arm_daemon_if_needed();
    }

    /// Earliest cycle strictly after `now` at which a
    /// [`tick`](Self::tick) could make progress, or `None` while the
    /// front-end is idle (same contract as
    /// [`nomad_types::NextActivity`]).
    ///
    /// Handlers still waiting on the back-end interface and deferred
    /// writebacks retry (and accrue `interface_wait`) every cycle, so
    /// they pin activity to `now + 1`. Sent handlers and a running
    /// daemon are pure timers: nothing observable happens until
    /// `work_done_at` / `daemon_until`.
    pub fn next_activity_at(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut consider = |at: Cycle| {
            let t = at.max(now + 1);
            next = Some(next.map_or(t, |n: Cycle| n.min(t)));
        };
        if !self.deferred_wb.is_empty() {
            consider(now + 1);
        }
        if !self.queue.is_empty() && self.mutex_free() {
            consider(now + 1);
        }
        for a in &self.active {
            if a.sent {
                consider(a.work_done_at);
            } else {
                consider(now + 1);
            }
        }
        if let Some(until) = self.daemon_until {
            consider(until);
        }
        next
    }

    /// Whether the front-end has no queued or active work.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
            && self.active.is_empty()
            && self.daemon_until.is_none()
            && self.deferred_wb.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_dcache::NoFlush;

    /// A backend stub with a settable capacity.
    struct StubBackend {
        slots: usize,
        sent: Vec<CopyCommand>,
        busy: Vec<Cfn>,
    }

    impl StubBackend {
        fn new(slots: usize) -> Self {
            StubBackend {
                slots,
                sent: Vec::new(),
                busy: Vec::new(),
            }
        }
    }

    impl BackendCtl for StubBackend {
        fn try_send(&mut self, cmd: CopyCommand) -> bool {
            if self.sent.len() >= self.slots {
                return false;
            }
            self.sent.push(cmd);
            true
        }
        fn busy_cfn(&self, cfn: Cfn) -> bool {
            self.busy.contains(&cfn)
        }
    }

    fn frontend(serialized: bool, frames: usize) -> Frontend {
        let mut cfg = NomadConfig::nomad(frames as u64 * nomad_types::PAGE_SIZE);
        cfg.serialized_handler = serialized;
        cfg.eviction_threshold = 4;
        cfg.eviction_batch = 8;
        Frontend::new(FrontendConfig::from(&cfg), frames)
    }

    fn run(
        f: &mut Frontend,
        b: &mut StubBackend,
        from: Cycle,
        cycles: Cycle,
    ) -> Vec<HandledTagMiss> {
        let mut all = Vec::new();
        let mut ev = FrontendEvents::default();
        for now in from..from + cycles {
            f.tick(now, b, &mut NoFlush, &mut ev);
            all.append(&mut ev.handled);
            ev.clear();
        }
        all
    }

    #[test]
    fn single_tag_miss_takes_400_cycles() {
        let mut f = frontend(true, 256);
        let mut b = StubBackend::new(16);
        // First touch the PTE so the pfn exists.
        let pfn = match f.page_table_mut().pte_mut(Vpn(5)).frame {
            nomad_cache::FrameKind::Phys(p) => p,
            _ => unreachable!(),
        };
        assert!(f.note_tag_miss(0, Vpn(5), pfn, SubBlockIdx(3), false, 100));
        let handled = run(&mut f, &mut b, 100, 1000);
        assert_eq!(handled.len(), 1);
        let h = handled[0];
        assert_eq!(h.completed - h.enqueued, 400);
        assert_eq!(h.interface_wait, 0);
        // PTE now caches the page and the fill was offloaded with the
        // critical sub-block.
        assert!(f.page_table().get(Vpn(5)).unwrap().cached());
        assert_eq!(b.sent.len(), 1);
        assert_eq!(b.sent[0].priority, Some(SubBlockIdx(3)));
        assert_eq!(b.sent[0].kind, CopyKind::Fill);
    }

    #[test]
    fn duplicate_vpn_tag_misses_coalesce() {
        let mut f = frontend(true, 256);
        let pfn = Pfn(0);
        f.page_table_mut().pte_mut(Vpn(5));
        assert!(f.note_tag_miss(0, Vpn(5), pfn, SubBlockIdx(0), false, 0));
        assert!(!f.note_tag_miss(1, Vpn(5), pfn, SubBlockIdx(1), false, 1));
        assert!(f.vpn_pending(Vpn(5)));
        let mut b = StubBackend::new(16);
        let handled = run(&mut f, &mut b, 0, 1000);
        assert_eq!(handled.len(), 1);
        assert!(!f.vpn_pending(Vpn(5)));
    }

    #[test]
    fn serialized_handlers_queue_behind_each_other() {
        let mut f = frontend(true, 256);
        let mut b = StubBackend::new(16);
        for v in 0..3u64 {
            f.page_table_mut().pte_mut(Vpn(v));
            f.note_tag_miss(0, Vpn(v), Pfn(v), SubBlockIdx(0), false, 0);
        }
        let handled = run(&mut f, &mut b, 0, 5000);
        assert_eq!(handled.len(), 3);
        let mut latencies: Vec<u64> = handled.iter().map(|h| h.completed - h.enqueued).collect();
        latencies.sort_unstable();
        assert_eq!(latencies[0], 400);
        assert!(
            latencies[1] >= 800,
            "second waits for the mutex: {latencies:?}"
        );
        assert!(latencies[2] >= 1200, "{latencies:?}");
    }

    #[test]
    fn parallel_handlers_do_not_queue() {
        let mut f = frontend(false, 256);
        let mut b = StubBackend::new(16);
        for v in 0..3u64 {
            f.page_table_mut().pte_mut(Vpn(v));
            f.note_tag_miss(0, Vpn(v), Pfn(v), SubBlockIdx(0), false, 0);
        }
        let handled = run(&mut f, &mut b, 0, 5000);
        assert_eq!(handled.len(), 3);
        for h in handled {
            assert_eq!(h.completed - h.enqueued, 400, "no mutex queueing");
        }
    }

    #[test]
    fn busy_interface_grows_tag_latency() {
        let mut f = frontend(true, 256);
        let mut b = StubBackend::new(0); // interface always busy
        f.page_table_mut().pte_mut(Vpn(1));
        f.note_tag_miss(0, Vpn(1), Pfn(0), SubBlockIdx(0), false, 0);
        let handled = run(&mut f, &mut b, 0, 300);
        assert!(handled.is_empty(), "cannot complete without the interface");
        b.slots = 16;
        let handled = run(&mut f, &mut b, 300, 1000);
        assert_eq!(handled.len(), 1);
        assert!(handled[0].interface_wait >= 299);
        assert!(handled[0].completed - handled[0].enqueued >= 400);
    }

    #[test]
    fn daemon_arms_at_threshold_and_reclaims() {
        let mut f = frontend(true, 16); // threshold 4, batch 8
        let mut b = StubBackend::new(64);
        // Fill 13 frames via handler path.
        for v in 0..13u64 {
            f.page_table_mut().pte_mut(Vpn(v));
            f.note_tag_miss(0, Vpn(v), Pfn(v), SubBlockIdx(0), false, 0);
        }
        let handled = run(&mut f, &mut b, 0, 20_000);
        assert_eq!(handled.len(), 13);
        // The daemon must have run and freed frames.
        assert!(f.frames().num_free() > 3, "free {}", f.frames().num_free());
        // Evicted pages are uncached again.
        let evicted_pages = (0..13u64)
            .filter(|v| {
                !f.page_table()
                    .get(Vpn(*v))
                    .map(|p| p.cached())
                    .unwrap_or(false)
            })
            .count();
        assert!(evicted_pages > 0);
    }

    #[test]
    fn dirty_evictions_offload_writebacks() {
        let mut f = frontend(true, 16);
        let mut b = StubBackend::new(64);
        for v in 0..13u64 {
            f.page_table_mut().pte_mut(Vpn(v));
            f.note_tag_miss(0, Vpn(v), Pfn(v), SubBlockIdx(0), true, 0); // writes
        }
        run(&mut f, &mut b, 0, 20_000);
        let wbs = b
            .sent
            .iter()
            .filter(|c| c.kind == CopyKind::Writeback)
            .count();
        assert!(wbs > 0, "dirty frames must be written back");
    }

    #[test]
    fn copy_busy_frames_survive_eviction() {
        let mut f = frontend(true, 16);
        let mut b = StubBackend::new(64);
        for v in 0..8u64 {
            f.page_table_mut().pte_mut(Vpn(v));
            f.note_tag_miss(0, Vpn(v), Pfn(v), SubBlockIdx(0), false, 0);
        }
        run(&mut f, &mut b, 0, 20_000);
        // Mark frame 0 busy and force reclamation of everything else.
        b.busy.push(Cfn(0));
        for v in 8..14u64 {
            f.page_table_mut().pte_mut(Vpn(v));
            f.note_tag_miss(0, Vpn(v), Pfn(v), SubBlockIdx(0), false, 30_000);
        }
        run(&mut f, &mut b, 30_000, 40_000);
        assert!(f.frames().cpd(Cfn(0)).valid, "busy frame skipped");
    }
}
