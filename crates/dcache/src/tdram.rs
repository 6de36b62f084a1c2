//! TDRAM: a tag-enhanced DRAM cache with **per-row on-die tag storage**
//! (PAPERS.md: "TDRAM: Tag-enhanced DRAM for Efficient Caching").
//!
//! Characteristics reproduced:
//!
//! * data cached in **64-byte blocks**, direct-mapped, with the tags
//!   held **in the DRAM row itself** and compared *on the die* — a hit
//!   is a single HBM access with no separate metadata traffic (contrast
//!   [`crate::Tid`], whose tag reads compete for data bandwidth);
//! * **early miss signalling**: a miss is detected by a *tag-only
//!   probe* ([`Probe::TagOnly`]) that occupies the bus for
//!   `t_tag` beats instead of a full burst, so misses are both detected
//!   early and cheap in bandwidth (the hit/miss latency split is
//!   modeled in `crates/dram` timing, not in SRAM metadata);
//! * **combined tag+data writes**: fills and write-allocates install
//!   data and tag in one burst, so installs cost no extra traffic;
//! * non-blocking misses via MSHRs keyed by cache slot, with a fill
//!   buffer answering same-block reads that race the fill.
//!
//! Being HW-managed, TDRAM leaves the page tables alone: translation is
//! conventional and the DC is invisible to the OS.
#![warn(missing_docs)]

use crate::scheme::{CacheFlush, DcAccessReq, DcScheme, SchemeEvents, WalkOutcome};
use crate::stats::SchemeStats;
use nomad_cache::{PageTable, TlbEntry};
use nomad_dram::{Dram, DramRequest, Probe};
use nomad_types::{AccessKind, CoreId, Cycle, MemResp, ReqId, TrafficClass, Vpn, BLOCK_SIZE};
use std::collections::VecDeque;

/// TDRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TdramConfig {
    /// DRAM-cache data capacity in bytes.
    pub capacity_bytes: u64,
    /// Miss status holding registers (slot-keyed).
    pub mshrs: usize,
    /// Latency to service a read from a fill buffer.
    pub buffer_latency: Cycle,
}

impl TdramConfig {
    /// Paper-style TDRAM over a DRAM cache of `capacity_bytes`.
    pub fn paper(capacity_bytes: u64) -> Self {
        TdramConfig {
            capacity_bytes,
            mshrs: 32,
            buffer_latency: 10,
        }
    }
}

/// Token-space tags for routing DRAM completions back to their source.
const TOK_DEMAND: u64 = 1 << 56;
const TOK_PROBE: u64 = 2 << 56;
const TOK_FILL: u64 = 3 << 56;
const TOK_WB: u64 = 4 << 56;
const TOK_MASK: u64 = 0xff << 56;

#[derive(Debug)]
struct TdramMshr {
    /// Cache slot being filled (also the token payload).
    slot: u64,
    /// Physical block id (`paddr / 64`) on its way in.
    block: u64,
    /// Whether the block's data has arrived from off-package memory.
    data_ready: bool,
    /// Whether the tag-only miss probe is still in flight (the fill
    /// read is issued only once the on-die tag check has signalled the
    /// miss).
    probe_outstanding: bool,
    /// Whether a dirty victim's HBM read-out is still in flight.
    wb_outstanding: bool,
    /// Victim block id being written back.
    victim_block: u64,
    /// Whether the line fills dirty (write hit absorbed mid-fill).
    dirty: bool,
    /// Reads waiting for the fill: `(request, arrival)`.
    waiting: Vec<(DcAccessReq, Cycle)>,
}

/// The tag-enhanced DRAM cache.
#[derive(Debug)]
pub struct Tdram {
    cfg: TdramConfig,
    page_table: PageTable,
    /// Per-slot tag: physical block id + 1, 0 when invalid. This is the
    /// *functional* mirror of the on-die tags — their timing cost is a
    /// [`Probe::TagOnly`] DRAM access, not an SRAM lookup.
    tags: Vec<u64>,
    /// Per-slot dirty bits, one bit per slot.
    dirty: Vec<u64>,
    num_slots: u64,
    mshrs: Vec<Option<TdramMshr>>,
    /// Accesses that missed while their slot was busy or all MSHRs
    /// were taken.
    retry: VecDeque<(DcAccessReq, Cycle)>,
    /// Demand reads in flight to HBM: token-seq → (req, arrival).
    demand_inflight: nomad_types::FxHashMap<u64, (DcAccessReq, Cycle)>,
    next_demand_token: u64,
    /// Latency-critical HBM traffic (demand reads/writes, miss probes).
    pending_hbm: VecDeque<DramRequest>,
    /// Background HBM traffic (fill writes, victim read-outs).
    pending_hbm_bg: VecDeque<DramRequest>,
    pending_ddr: VecDeque<DramRequest>,
    /// Responses generated mid-tick (buffer hits, fill arrivals).
    ready_responses: Vec<(Cycle, MemResp)>,
    stats: SchemeStats,
    scratch: Vec<nomad_dram::DramCompletion>,
}

impl Tdram {
    /// Build a TDRAM cache.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer than one 64-byte slot.
    pub fn new(cfg: TdramConfig) -> Self {
        let num_slots = (cfg.capacity_bytes / BLOCK_SIZE).next_power_of_two();
        assert!(num_slots >= 1, "geometry too small");
        Tdram {
            tags: vec![0; num_slots as usize],
            dirty: vec![0; num_slots.div_ceil(64) as usize],
            num_slots,
            mshrs: (0..cfg.mshrs).map(|_| None).collect(),
            retry: VecDeque::new(),
            demand_inflight: nomad_types::FxHashMap::default(),
            next_demand_token: 0,
            pending_hbm: VecDeque::new(),
            pending_hbm_bg: VecDeque::new(),
            pending_ddr: VecDeque::new(),
            ready_responses: Vec::new(),
            page_table: PageTable::new(),
            stats: SchemeStats::default(),
            cfg,
            scratch: Vec::new(),
        }
    }

    /// The scheme's page table.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    fn slot_of(&self, block: u64) -> u64 {
        block & (self.num_slots - 1)
    }

    fn is_dirty(&self, slot: u64) -> bool {
        self.dirty[(slot / 64) as usize] & (1 << (slot % 64)) != 0
    }

    fn set_dirty(&mut self, slot: u64, d: bool) {
        if d {
            self.dirty[(slot / 64) as usize] |= 1 << (slot % 64);
        } else {
            self.dirty[(slot / 64) as usize] &= !(1 << (slot % 64));
        }
    }

    /// HBM byte address of `slot`'s data.
    fn slot_addr(&self, slot: u64) -> u64 {
        slot * BLOCK_SIZE
    }

    fn find_mshr(&self, slot: u64) -> Option<usize> {
        self.mshrs
            .iter()
            .position(|m| m.as_ref().map(|m| m.slot == slot).unwrap_or(false))
    }

    fn push_demand(&mut self, req: DcAccessReq, slot: u64, now: Cycle) {
        let kind = req.kind;
        let wants = req.wants_response && !kind.is_write();
        let token = if wants {
            let seq = self.next_demand_token;
            self.next_demand_token += 1;
            self.demand_inflight.insert(seq, (req, now));
            TOK_DEMAND | seq
        } else {
            0
        };
        self.pending_hbm.push_back(DramRequest {
            token: ReqId(token),
            addr: self.slot_addr(slot),
            kind,
            class: if kind.is_write() {
                TrafficClass::DemandWrite
            } else {
                TrafficClass::DemandRead
            },
            wants_completion: wants,
            probe: Probe::Data,
        });
    }

    fn handle_access(&mut self, req: DcAccessReq, now: Cycle) -> bool {
        let block = req.addr.base() / BLOCK_SIZE;
        let slot = self.slot_of(block);

        // 1. Slot already being filled? (data-miss path)
        if let Some(idx) = self.find_mshr(slot) {
            let buffer_latency = self.cfg.buffer_latency;
            let m = self.mshrs[idx].as_mut().expect("live mshr");
            if m.block != block {
                // Conflicting block racing an in-flight fill of the
                // same slot: hold it until the slot settles.
                return false;
            }
            self.stats.data_misses.inc();
            if req.kind.is_write() {
                m.dirty = true;
                self.stats.demand_writes.inc();
                return true;
            }
            self.stats.demand_reads.inc();
            if m.data_ready {
                self.stats.buffer_hits.inc();
                self.stats.dc_access_time.record(buffer_latency);
                self.ready_responses.push((
                    now + buffer_latency,
                    MemResp {
                        token: req.token,
                        addr: req.addr,
                        kind: req.kind,
                        core: req.core,
                    },
                ));
            } else {
                m.waiting.push((req, now));
            }
            return true;
        }

        // 2. On-die tag check. A *hit* is a single data access — the
        // tag comparison rides along inside the die, costing neither
        // extra latency nor bus bandwidth.
        if self.tags[slot as usize] == block + 1 {
            self.stats.dc_data_hits.inc();
            if req.kind.is_write() {
                self.stats.demand_writes.inc();
                self.set_dirty(slot, true);
            } else {
                self.stats.demand_reads.inc();
            }
            self.push_demand(req, slot, now);
            return true;
        }

        // 3. Miss: allocate an MSHR or ask the caller to retry.
        let Some(idx) = self.mshrs.iter().position(Option::is_none) else {
            return false;
        };
        if req.kind.is_write() {
            self.stats.demand_writes.inc();
        } else {
            self.stats.demand_reads.inc();
        }
        self.stats.tag_misses.inc();
        let victim = self.tags[slot as usize];
        let victim_dirty = victim != 0 && self.is_dirty(slot);
        if victim != 0 {
            self.stats.evictions.inc();
        }
        self.tags[slot as usize] = 0;
        self.set_dirty(slot, false);

        let mut mshr = TdramMshr {
            slot,
            block,
            data_ready: false,
            probe_outstanding: false,
            wb_outstanding: victim_dirty,
            victim_block: victim.wrapping_sub(1),
            dirty: req.kind.is_write(),
            waiting: Vec::new(),
        };
        if req.kind.is_write() {
            // Write-allocate: the store carries its data, and TDRAM
            // writes data and tag in one combined burst — no probe, no
            // fill read.
            mshr.data_ready = true;
            self.pending_hbm.push_back(DramRequest {
                token: ReqId(TOK_FILL | idx as u64),
                addr: self.slot_addr(slot),
                kind: AccessKind::Write,
                class: TrafficClass::DemandWrite,
                wants_completion: true,
                probe: Probe::Data,
            });
        } else {
            // Read miss: the tag-only probe detects the miss at tag
            // latency (early miss signal); the off-package fetch starts
            // once it returns.
            mshr.probe_outstanding = true;
            mshr.waiting.push((req, now));
            self.pending_hbm.push_back(DramRequest {
                token: ReqId(TOK_PROBE | idx as u64),
                addr: self.slot_addr(slot),
                kind: AccessKind::Read,
                class: TrafficClass::Metadata,
                wants_completion: true,
                probe: Probe::TagOnly,
            });
        }
        if victim_dirty {
            self.stats.writebacks.inc();
            self.stats.writeback_bytes.add(BLOCK_SIZE);
            self.pending_hbm_bg.push_back(DramRequest {
                token: ReqId(TOK_WB | idx as u64),
                addr: self.slot_addr(slot),
                kind: AccessKind::Read,
                class: TrafficClass::Writeback,
                wants_completion: true,
                probe: Probe::Data,
            });
        }
        self.mshrs[idx] = Some(mshr);
        true
    }

    fn on_probe_done(&mut self, idx: usize) {
        let Some(m) = self.mshrs[idx].as_mut() else {
            return;
        };
        if !m.probe_outstanding {
            return;
        }
        m.probe_outstanding = false;
        let block = m.block;
        self.pending_ddr.push_back(DramRequest {
            token: ReqId(TOK_FILL | idx as u64),
            addr: block * BLOCK_SIZE,
            kind: AccessKind::Read,
            class: TrafficClass::Fill,
            wants_completion: true,
            probe: Probe::Data,
        });
    }

    fn on_fill_data(&mut self, idx: usize, from_ddr: bool, now: Cycle) {
        let (slot, waiting) = {
            let Some(m) = self.mshrs[idx].as_mut() else {
                return;
            };
            m.data_ready = true;
            (m.slot, std::mem::take(&mut m.waiting))
        };
        for (req, arrival) in waiting {
            self.stats
                .dc_access_time
                .record(now.saturating_sub(arrival));
            self.ready_responses.push((
                now,
                MemResp {
                    token: req.token,
                    addr: req.addr,
                    kind: req.kind,
                    core: req.core,
                },
            ));
        }
        if from_ddr {
            // Stream the block into the cache: one combined tag+data
            // burst, no separate metadata write.
            self.pending_hbm_bg.push_back(DramRequest {
                token: ReqId(0),
                addr: self.slot_addr(slot),
                kind: AccessKind::Write,
                class: TrafficClass::Fill,
                wants_completion: false,
                probe: Probe::Data,
            });
            self.stats.fill_bytes.add(BLOCK_SIZE);
        }
        self.try_retire(idx);
    }

    fn on_wb_read_done(&mut self, idx: usize) {
        let victim_block;
        {
            let Some(m) = self.mshrs[idx].as_mut() else {
                return;
            };
            m.wb_outstanding = false;
            victim_block = m.victim_block;
        }
        self.pending_ddr.push_back(DramRequest {
            token: ReqId(0),
            addr: victim_block * BLOCK_SIZE,
            kind: AccessKind::Write,
            class: TrafficClass::Writeback,
            wants_completion: false,
            probe: Probe::Data,
        });
        self.try_retire(idx);
    }

    fn try_retire(&mut self, idx: usize) {
        let done = match self.mshrs[idx].as_ref() {
            Some(m) => {
                m.data_ready && !m.probe_outstanding && !m.wb_outstanding && m.waiting.is_empty()
            }
            None => false,
        };
        if done {
            let m = self.mshrs[idx].take().expect("checked");
            self.tags[m.slot as usize] = m.block + 1;
            self.set_dirty(m.slot, m.dirty);
            self.stats.fills.inc();
        }
    }
}

impl DcScheme for Tdram {
    fn name(&self) -> &'static str {
        "TDRAM"
    }

    fn walk(
        &mut self,
        _core: CoreId,
        vpn: Vpn,
        _sub: nomad_types::SubBlockIdx,
        kind: AccessKind,
        _now: Cycle,
    ) -> WalkOutcome {
        // HW-managed: translation is conventional; the DC is invisible
        // to the OS.
        let pte = self.page_table.pte_mut(vpn);
        if kind.is_write() {
            pte.dirty = true;
        }
        WalkOutcome::Ready {
            entry: TlbEntry {
                vpn,
                frame: pte.frame,
                noncacheable: pte.noncacheable,
            },
        }
    }

    fn prewarm(&mut self, _core: CoreId, vpn: Vpn, dirty: bool) {
        let pte = *self.page_table.pte_mut(vpn);
        let nomad_cache::FrameKind::Phys(pfn) = pte.frame else {
            return;
        };
        let first = pfn.base().raw() / BLOCK_SIZE;
        for b in 0..(nomad_types::PAGE_SIZE / BLOCK_SIZE) {
            let block = first + b;
            let slot = self.slot_of(block);
            self.tags[slot as usize] = block + 1;
            self.set_dirty(slot, dirty);
        }
    }

    fn can_accept(&self) -> bool {
        self.retry.len() < 32 && self.pending_hbm.len() < 64 && self.pending_hbm_bg.len() < 256
    }

    fn access(&mut self, req: DcAccessReq, now: Cycle) {
        if !self.handle_access(req, now) {
            self.stats.pcshr_full_events.inc();
            self.retry.push_back((req, now));
        }
    }

    fn tick(
        &mut self,
        now: Cycle,
        hbm: &mut Dram,
        ddr: &mut Dram,
        _flush: &mut dyn CacheFlush,
        events: &mut SchemeEvents,
    ) {
        // Retry accesses stalled on MSHR/slot pressure (in order).
        while let Some((req, arrived)) = self.retry.pop_front() {
            if !self.handle_access(req, arrived) {
                self.retry.push_front((req, arrived));
                break;
            }
        }

        // Push pending traffic: latency-critical demand and probes
        // first, background fill/writeback traffic after.
        while let Some(r) = self.pending_hbm.pop_front() {
            if let Err(back) = hbm.try_push(r) {
                self.pending_hbm.push_front(back);
                break;
            }
        }
        while let Some(r) = self.pending_hbm_bg.pop_front() {
            if let Err(back) = hbm.try_push(r) {
                self.pending_hbm_bg.push_front(back);
                break;
            }
        }
        while let Some(r) = self.pending_ddr.pop_front() {
            if let Err(back) = ddr.try_push(r) {
                self.pending_ddr.push_front(back);
                break;
            }
        }

        // HBM completions: demand reads, miss probes, write-allocate
        // installs and victim read-outs.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        hbm.tick(&mut scratch);
        for c in scratch.drain(..) {
            match c.token.0 & TOK_MASK {
                TOK_DEMAND => {
                    let seq = c.token.0 & !TOK_MASK;
                    if let Some((req, arrived)) = self.demand_inflight.remove(&seq) {
                        self.stats
                            .dc_access_time
                            .record(now.saturating_sub(arrived));
                        events.responses.push(MemResp {
                            token: req.token,
                            addr: req.addr,
                            kind: req.kind,
                            core: req.core,
                        });
                    }
                }
                TOK_PROBE => self.on_probe_done((c.token.0 & !TOK_MASK) as usize),
                TOK_FILL => self.on_fill_data((c.token.0 & !TOK_MASK) as usize, false, now),
                TOK_WB => self.on_wb_read_done((c.token.0 & !TOK_MASK) as usize),
                _ => {}
            }
        }

        // DDR completions: fill reads.
        ddr.tick(&mut scratch);
        for c in scratch.drain(..) {
            if c.token.0 & TOK_MASK == TOK_FILL {
                self.on_fill_data((c.token.0 & !TOK_MASK) as usize, true, now);
            }
        }
        self.scratch = scratch;

        // Release time-delayed responses (fill-buffer hits).
        let mut i = 0;
        while i < self.ready_responses.len() {
            if self.ready_responses[i].0 <= now {
                let (_, resp) = self.ready_responses.swap_remove(i);
                events.responses.push(resp);
            } else {
                i += 1;
            }
        }
    }

    fn next_activity_at(&self, now: Cycle) -> Option<Cycle> {
        // Retries, queued traffic and live MSHRs all make per-cycle
        // progress, so stay dense while any exist. Otherwise only
        // delayed buffer-hit responses are timed; in-flight accesses
        // complete on device edges the system watches separately.
        if !self.retry.is_empty()
            || !self.pending_hbm.is_empty()
            || !self.pending_hbm_bg.is_empty()
            || !self.pending_ddr.is_empty()
            || self.mshrs.iter().any(Option::is_some)
        {
            return Some(now + 1);
        }
        self.ready_responses
            .iter()
            .map(|&(at, _)| at.max(now + 1))
            .min()
    }

    fn tlb_inserted(&mut self, _core: CoreId, _vpn: Vpn) {}

    fn tlb_departed(&mut self, _core: CoreId, _vpn: Vpn) {}

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::NoFlush;
    use nomad_dram::DramConfig;
    use nomad_types::{BlockAddr, MemTarget};

    fn setup() -> (Tdram, Dram, Dram, SchemeEvents) {
        (
            Tdram::new(TdramConfig::paper(1 << 20)), // 1 MiB DC: 16384 slots
            Dram::new(DramConfig::hbm()),
            Dram::new(DramConfig::ddr4_2ch()),
            SchemeEvents::default(),
        )
    }

    fn read_at(token: u64, addr: u64) -> DcAccessReq {
        DcAccessReq {
            token: ReqId(token),
            addr: BlockAddr::containing(addr),
            target: MemTarget::OffPackage,
            kind: AccessKind::Read,
            core: 0,
            wants_response: true,
        }
    }

    fn write_at(token: u64, addr: u64) -> DcAccessReq {
        DcAccessReq {
            token: ReqId(token),
            addr: BlockAddr::containing(addr),
            target: MemTarget::OffPackage,
            kind: AccessKind::Write,
            core: 0,
            wants_response: false,
        }
    }

    fn run(
        s: &mut Tdram,
        hbm: &mut Dram,
        ddr: &mut Dram,
        ev: &mut SchemeEvents,
        from: Cycle,
        cycles: Cycle,
    ) -> Vec<MemResp> {
        let mut out = Vec::new();
        for now in from..from + cycles {
            s.tick(now, hbm, ddr, &mut NoFlush, ev);
            out.append(&mut ev.responses);
            ev.clear();
        }
        out
    }

    #[test]
    fn cold_miss_probes_then_fills_from_ddr() {
        let (mut s, mut hbm, mut ddr, mut ev) = setup();
        s.access(read_at(1, 0x10040), 0);
        let out = run(&mut s, &mut hbm, &mut ddr, &mut ev, 0, 3000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, ReqId(1));
        assert_eq!(s.stats().tag_misses.get(), 1);
        assert_eq!(s.stats().fills.get(), 1);
        assert_eq!(s.stats().fill_bytes.get(), 64);
        // The early-miss probe cost only tag beats, not a full burst.
        assert_eq!(hbm.stats().bytes_for(TrafficClass::Metadata).read, 8);
        // Fill data was written into HBM (tag+data combined burst).
        assert_eq!(hbm.stats().bytes_for(TrafficClass::Fill).written, 64);
        assert_eq!(ddr.stats().bytes_for(TrafficClass::Fill).read, 64);
    }

    #[test]
    fn hit_costs_no_metadata_bandwidth() {
        let (mut s, mut hbm, mut ddr, mut ev) = setup();
        s.access(read_at(1, 0x10000), 0);
        run(&mut s, &mut hbm, &mut ddr, &mut ev, 0, 3000);
        let metadata_before = hbm.stats().bytes_for(TrafficClass::Metadata).total();
        s.access(read_at(2, 0x10000), 3000);
        let out = run(&mut s, &mut hbm, &mut ddr, &mut ev, 3000, 2000);
        assert_eq!(out.len(), 1);
        assert_eq!(s.stats().dc_data_hits.get(), 1);
        // On-die tag check: zero extra metadata traffic for hits.
        let metadata_after = hbm.stats().bytes_for(TrafficClass::Metadata).total();
        assert_eq!(metadata_after, metadata_before, "tags checked on-die");
    }

    #[test]
    fn access_during_fill_waits_or_hits_buffer() {
        let (mut s, mut hbm, mut ddr, mut ev) = setup();
        s.access(read_at(1, 0x10000), 0);
        s.access(read_at(2, 0x10000), 1); // same block, mid-fill
        let out = run(&mut s, &mut hbm, &mut ddr, &mut ev, 0, 5000);
        assert_eq!(out.len(), 2);
        assert_eq!(s.stats().data_misses.get(), 1);
        assert_eq!(s.stats().tag_misses.get(), 1, "no second fill");
    }

    #[test]
    fn write_allocates_without_fill_read() {
        let (mut s, mut hbm, mut ddr, mut ev) = setup();
        s.access(write_at(1, 0x10000), 0);
        run(&mut s, &mut hbm, &mut ddr, &mut ev, 0, 3000);
        assert_eq!(s.stats().tag_misses.get(), 1);
        assert_eq!(s.stats().fills.get(), 1);
        // Combined tag+data write: nothing fetched from off-package.
        assert_eq!(ddr.stats().total_bytes(), 0);
        // A read to the same block now hits.
        s.access(read_at(2, 0x10000), 3000);
        let out = run(&mut s, &mut hbm, &mut ddr, &mut ev, 3000, 2000);
        assert_eq!(out.len(), 1);
        assert_eq!(s.stats().dc_data_hits.get(), 1);
    }

    #[test]
    fn dirty_victim_written_back() {
        let (mut s, mut hbm, mut ddr, mut ev) = setup();
        s.access(write_at(1, 0x10000), 0);
        run(&mut s, &mut hbm, &mut ddr, &mut ev, 0, 3000);
        // Conflicting block: direct-mapped slots repeat every 1 MiB.
        s.access(read_at(2, 0x10000 + (1 << 20)), 3000);
        run(&mut s, &mut hbm, &mut ddr, &mut ev, 3000, 8000);
        assert_eq!(s.stats().writebacks.get(), 1);
        assert_eq!(s.stats().evictions.get(), 1);
        assert_eq!(ddr.stats().bytes_for(TrafficClass::Writeback).written, 64);
    }

    #[test]
    fn mshr_exhaustion_retries() {
        let (mut s, mut hbm, mut ddr, mut ev) = setup();
        // 40 distinct blocks with 32 MSHRs.
        for i in 0..40u64 {
            s.access(read_at(i, i * 64 + 0x4000_0000), 0);
        }
        let out = run(&mut s, &mut hbm, &mut ddr, &mut ev, 0, 60_000);
        assert_eq!(out.len(), 40, "all eventually served");
        assert!(s.stats().pcshr_full_events.get() > 0);
    }

    #[test]
    fn walk_is_conventional() {
        let mut s = Tdram::new(TdramConfig::paper(1 << 20));
        match s.walk(0, Vpn(3), nomad_types::SubBlockIdx(0), AccessKind::Read, 0) {
            WalkOutcome::Ready { entry } => {
                assert!(matches!(entry.frame, nomad_cache::FrameKind::Phys(_)))
            }
            _ => panic!("TDRAM never blocks the core"),
        }
    }
}
