//! TiD: the HW-based *tags-in-DRAM* DRAM cache, modeled after Unison
//! Cache's tag management (the paper's representative HW-based design).
//!
//! Characteristics reproduced from §II-A / §IV-A:
//!
//! * data cached in **1 KiB lines**, 4-way set-associative, LRU;
//! * **tags stored in on-package DRAM**: every DC access issues a tag
//!   read, and metadata updates (tag install, dirty bits) issue tag
//!   writes — the extra on-package bandwidth that stretches TiD's
//!   effective DC access time (Fig. 1a, Fig. 10 "metadata");
//! * an **ideal way predictor**: hit data accesses proceed in parallel
//!   with the tag read, so the tag read costs bandwidth but not
//!   latency (§IV-A);
//! * **non-blocking misses** via MSHRs with critical-block-first
//!   fills: the demanded 64-byte block is fetched first and the LLC is
//!   answered as soon as it arrives;
//! * dirty victims are read from on-package DRAM and written back to
//!   off-package memory.
//!
//! Being HW-managed, TiD leaves the page tables alone: SRAM caches and
//! the DC operate on physical addresses.

use crate::scheme::{CacheFlush, DcAccessReq, DcScheme, SchemeEvents, WalkOutcome};
use crate::stats::SchemeStats;
use nomad_cache::{CacheArray, PageTable, TlbEntry};
use nomad_dram::{Dram, DramRequest, Probe};
use nomad_types::{
    AccessKind, CoreId, Cycle, FxHashMap, MemResp, ReqId, TrafficClass, Vpn, BLOCK_SIZE,
};
use std::collections::VecDeque;

/// TiD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TidConfig {
    /// DRAM-cache data capacity in bytes.
    pub capacity_bytes: u64,
    /// Cache-line size in bytes (1 KiB in the paper's TiD setup).
    pub line_bytes: u64,
    /// Set associativity (4 ways — the scalability limit the paper
    /// cites for HW-based designs).
    pub assoc: usize,
    /// Miss status holding registers.
    pub mshrs: usize,
    /// Extra tag-store write on every hit (LRU update). Off by
    /// default: Unison-style designs fold the LRU update into the
    /// combined tag/data row access, so hits cost one tag read; misses
    /// and stores still pay explicit metadata writes.
    pub tag_write_on_hit: bool,
    /// Latency to service a read from a fill buffer.
    pub buffer_latency: Cycle,
}

impl TidConfig {
    /// Paper-style TiD over a DRAM cache of `capacity_bytes`.
    pub fn paper(capacity_bytes: u64) -> Self {
        TidConfig {
            capacity_bytes,
            line_bytes: 1024,
            assoc: 4,
            mshrs: 16,
            tag_write_on_hit: false,
            buffer_latency: 10,
        }
    }
}

/// Token-space tags for routing DRAM completions back to their source.
const TOK_DEMAND: u64 = 1 << 56;
const TOK_FILL: u64 = 2 << 56;
const TOK_WB: u64 = 3 << 56;
const TOK_MASK: u64 = 0xff << 56;

#[derive(Debug)]
struct TidMshr {
    /// Physical line identifier (`paddr / line_bytes`).
    line: u64,
    /// Block-arrival bitmask (bit per 64-byte block of the line).
    fetched: u32,
    /// Read-issued bitmask.
    issued: u32,
    /// Critical (demanded-first) block index.
    critical: u8,
    /// Whether the line fills dirty (write-allocated).
    dirty: bool,
    /// Reads waiting for specific blocks: `(request, block, arrival)`.
    waiting: Vec<(DcAccessReq, u8, Cycle)>,
    /// Outstanding victim-writeback reads (from HBM) not yet returned.
    wb_reads_left: u32,
    /// Victim line id being written back (DDR write addresses).
    wb_line: u64,
}

/// The tags-in-DRAM HW-based DRAM cache.
#[derive(Debug)]
pub struct Tid {
    cfg: TidConfig,
    page_table: PageTable,
    tags: CacheArray,
    mshrs: Vec<Option<TidMshr>>,
    /// Accesses that missed while all MSHRs were busy.
    retry: VecDeque<(DcAccessReq, Cycle)>,
    /// Demand reads in flight to HBM: token-seq → (req, arrival).
    demand_inflight: FxHashMap<u64, (DcAccessReq, Cycle)>,
    next_demand_token: u64,
    /// Latency-critical HBM traffic (demand reads/writes).
    pending_hbm: VecDeque<DramRequest>,
    /// Background HBM traffic (metadata, fill writes, writeback reads).
    pending_hbm_bg: VecDeque<DramRequest>,
    pending_ddr: VecDeque<DramRequest>,
    /// Responses generated mid-tick (buffer hits, fill arrivals).
    ready_responses: Vec<(Cycle, MemResp)>,
    stats: SchemeStats,
    scratch: Vec<nomad_dram::DramCompletion>,
}

impl Tid {
    /// Build a TiD cache.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a multiple of 64 or the geometry
    /// does not produce at least one set.
    pub fn new(cfg: TidConfig) -> Self {
        assert!(cfg.line_bytes.is_multiple_of(BLOCK_SIZE) && cfg.line_bytes >= BLOCK_SIZE);
        let lines = (cfg.capacity_bytes / cfg.line_bytes).max(1) as usize;
        assert!(lines >= cfg.assoc, "geometry too small");
        let sets = (lines / cfg.assoc).next_power_of_two();
        Tid {
            tags: CacheArray::new(sets, cfg.assoc),
            mshrs: (0..cfg.mshrs).map(|_| None).collect(),
            retry: VecDeque::new(),
            demand_inflight: FxHashMap::default(),
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

    fn blocks_per_line(&self) -> u32 {
        (self.cfg.line_bytes / BLOCK_SIZE) as u32
    }

    fn full_mask(&self) -> u32 {
        if self.blocks_per_line() == 32 {
            u32::MAX
        } else {
            (1u32 << self.blocks_per_line()) - 1
        }
    }

    /// HBM byte address of `line`'s data slot (hashed direct placement
    /// — sufficient for bandwidth/row modeling).
    fn data_addr(&self, line: u64, block: u8) -> u64 {
        (line * self.cfg.line_bytes) % self.cfg.capacity_bytes + block as u64 * BLOCK_SIZE
    }

    /// HBM byte address of the tag block for `line`'s set (tag region
    /// sits above the data region).
    fn tag_addr(&self, line: u64) -> u64 {
        let set = line & (self.tags.num_sets() as u64 - 1);
        self.cfg.capacity_bytes + set * BLOCK_SIZE
    }

    fn push_metadata_read(&mut self, line: u64) {
        self.pending_hbm_bg.push_back(DramRequest {
            token: ReqId(0),
            addr: self.tag_addr(line),
            kind: AccessKind::Read,
            class: TrafficClass::Metadata,
            wants_completion: false,
            probe: Probe::Data,
        });
    }

    fn push_metadata_write(&mut self, line: u64) {
        self.pending_hbm_bg.push_back(DramRequest {
            token: ReqId(0),
            addr: self.tag_addr(line),
            kind: AccessKind::Write,
            class: TrafficClass::Metadata,
            wants_completion: false,
            probe: Probe::Data,
        });
    }

    fn submit_demand(&mut self, req: DcAccessReq, line: u64, block: u8, now: Cycle) {
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
            addr: self.data_addr(line, block),
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
        let paddr = req.addr.base();
        let line = paddr / self.cfg.line_bytes;
        let block = ((paddr % self.cfg.line_bytes) / BLOCK_SIZE) as u8;

        // 1. Line already being filled? (data-miss path)
        if let Some(idx) = self.find_mshr(line) {
            let buffer_latency = self.cfg.buffer_latency;
            let m = self.mshrs[idx].as_mut().expect("live mshr");
            self.stats.data_misses.inc();
            if req.kind.is_write() {
                // Absorb into the fill buffer; line installs dirty.
                m.dirty = true;
                m.fetched |= 1 << block;
                self.stats.demand_writes.inc();
                return true;
            }
            self.stats.demand_reads.inc();
            if m.fetched & (1 << block) != 0 {
                // Serviced straight from the fill buffer.
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
                m.waiting.push((req, block, now));
            }
            return true;
        }

        // 2. Tag probe (ideal way predictor: bandwidth, not latency).
        self.push_metadata_read(line);
        let hit = if req.kind.is_write() {
            self.tags.mark_dirty(line)
        } else {
            self.tags.touch(line)
        };
        if hit {
            self.stats.dc_data_hits.inc();
            if req.kind.is_write() {
                self.stats.demand_writes.inc();
                self.push_metadata_write(line); // dirty-bit update
            } else {
                self.stats.demand_reads.inc();
                if self.cfg.tag_write_on_hit {
                    self.push_metadata_write(line);
                }
            }
            self.submit_demand(req, line, block, now);
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
        let victim = self.tags.insert(line, false);
        self.push_metadata_write(line); // tag install
        let mut mshr = TidMshr {
            line,
            fetched: 0,
            issued: if req.kind.is_write() {
                0
            } else {
                1u32 << block
            },
            critical: block,
            dirty: req.kind.is_write(),
            waiting: Vec::new(),
            wb_reads_left: 0,
            wb_line: 0,
        };
        if req.kind.is_write() {
            // Write-allocate: the store's block is in the buffer now.
            mshr.fetched |= 1 << block;
        } else {
            mshr.waiting.push((req, block, now));
        }
        // Critical-block-first: the demanded block's fetch jumps the
        // fill queue so the LLC answer is not serialized behind other
        // lines' fills (stores carry their own data; nothing to jump).
        if !req.kind.is_write() {
            self.pending_ddr.push_front(DramRequest {
                token: ReqId(TOK_FILL | ((idx as u64) << 8) | block as u64),
                addr: line * self.cfg.line_bytes + block as u64 * BLOCK_SIZE,
                kind: AccessKind::Read,
                class: TrafficClass::Fill,
                wants_completion: true,
                probe: Probe::Data,
            });
        }
        if let Some(v) = victim {
            if v.dirty {
                self.stats.writebacks.inc();
                self.stats.writeback_bytes.add(self.cfg.line_bytes);
                mshr.wb_reads_left = self.blocks_per_line();
                mshr.wb_line = v.key;
                for b in 0..self.blocks_per_line() as u8 {
                    self.pending_hbm_bg.push_back(DramRequest {
                        token: ReqId(TOK_WB | ((idx as u64) << 8) | b as u64),
                        addr: self.data_addr(v.key, b),
                        kind: AccessKind::Read,
                        class: TrafficClass::Writeback,
                        wants_completion: true,
                        probe: Probe::Data,
                    });
                }
            }
        }
        self.mshrs[idx] = Some(mshr);
        true
    }

    fn find_mshr(&self, line: u64) -> Option<usize> {
        self.mshrs
            .iter()
            .position(|m| m.as_ref().map(|m| m.line == line).unwrap_or(false))
    }

    /// Issue outstanding fill reads, critical block first then
    /// sequential.
    fn issue_fill_reads(&mut self) {
        let blocks = self.blocks_per_line();
        for idx in 0..self.mshrs.len() {
            // Bound per-MSHR queue pressure.
            if self.pending_ddr.len() > 64 {
                break;
            }
            let Some(m) = self.mshrs[idx].as_mut() else {
                continue;
            };
            let order = core::iter::once(m.critical as u32)
                .chain((0..blocks).filter(|&b| b != m.critical as u32));
            let mut to_issue = Vec::new();
            for b in order {
                if m.issued & (1 << b) == 0 && m.fetched & (1 << b) == 0 {
                    m.issued |= 1 << b;
                    to_issue.push(b as u8);
                    if to_issue.len() >= 4 {
                        break; // issue throttle per tick
                    }
                }
            }
            let line = m.line;
            for b in to_issue {
                self.pending_ddr.push_back(DramRequest {
                    token: ReqId(TOK_FILL | ((idx as u64) << 8) | b as u64),
                    addr: line * self.cfg.line_bytes + b as u64 * BLOCK_SIZE,
                    kind: AccessKind::Read,
                    class: TrafficClass::Fill,
                    wants_completion: true,
                    probe: Probe::Data,
                });
            }
        }
    }

    fn on_fill_read_done(&mut self, idx: usize, block: u8, now: Cycle) {
        let line;
        {
            let Some(m) = self.mshrs[idx].as_mut() else {
                return;
            };
            m.fetched |= 1 << block;
            line = m.line;
            // Answer waiters for this block.
            let mut i = 0;
            while i < m.waiting.len() {
                if m.waiting[i].1 == block {
                    let (req, _, arrival) = m.waiting.swap_remove(i);
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
                } else {
                    i += 1;
                }
            }
        }
        // Stream the block into the DRAM cache.
        self.pending_hbm_bg.push_back(DramRequest {
            token: ReqId(0),
            addr: self.data_addr(line, block),
            kind: AccessKind::Write,
            class: TrafficClass::Fill,
            wants_completion: false,
            probe: Probe::Data,
        });
        self.stats.fill_bytes.add(BLOCK_SIZE);
        self.try_retire(idx);
    }

    fn on_wb_read_done(&mut self, idx: usize, block: u8) {
        let wb_line;
        {
            let Some(m) = self.mshrs[idx].as_mut() else {
                return;
            };
            m.wb_reads_left = m.wb_reads_left.saturating_sub(1);
            wb_line = m.wb_line;
        }
        self.pending_ddr.push_back(DramRequest {
            token: ReqId(0),
            addr: wb_line * self.cfg.line_bytes + block as u64 * BLOCK_SIZE,
            kind: AccessKind::Write,
            class: TrafficClass::Writeback,
            wants_completion: false,
            probe: Probe::Data,
        });
        self.try_retire(idx);
    }

    fn try_retire(&mut self, idx: usize) {
        let full = self.full_mask();
        let done = match self.mshrs[idx].as_ref() {
            Some(m) => m.fetched & full == full && m.wb_reads_left == 0 && m.waiting.is_empty(),
            None => false,
        };
        if done {
            let m = self.mshrs[idx].take().expect("checked");
            if m.dirty {
                self.tags.mark_dirty(m.line);
                self.push_metadata_write(m.line);
            }
            self.stats.fills.inc();
        }
    }
}

impl DcScheme for Tid {
    fn name(&self) -> &'static str {
        "TiD"
    }

    fn walk(
        &mut self,
        _core: CoreId,
        vpn: Vpn,
        _sub: nomad_types::SubBlockIdx,
        kind: AccessKind,
        _now: Cycle,
    ) -> WalkOutcome {
        // HW-based: translation is conventional; the DC is invisible to
        // the OS.
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
        let lines_per_page = nomad_types::PAGE_SIZE / self.cfg.line_bytes;
        let first = pfn.base().raw() / self.cfg.line_bytes;
        for l in 0..lines_per_page {
            self.tags.insert(first + l, dirty);
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
        // Retry accesses stalled on MSHR pressure (in order).
        while let Some((req, arrived)) = self.retry.pop_front() {
            if !self.handle_access(req, arrived) {
                self.retry.push_front((req, arrived));
                break;
            }
        }
        self.issue_fill_reads();

        // Push pending traffic: latency-critical demand first,
        // background metadata/fill/writeback after.
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

        // HBM completions: demand reads and writeback reads.
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
                TOK_WB => {
                    let idx = ((c.token.0 >> 8) & 0xffff_ffff_ffff) as usize;
                    let block = (c.token.0 & 0xff) as u8;
                    self.on_wb_read_done(idx, block);
                }
                _ => {}
            }
        }

        // DDR completions: fill reads.
        ddr.tick(&mut scratch);
        for c in scratch.drain(..) {
            if c.token.0 & TOK_MASK == TOK_FILL {
                let idx = ((c.token.0 >> 8) & 0xffff_ffff_ffff) as usize;
                let block = (c.token.0 & 0xff) as u8;
                self.on_fill_read_done(idx, block, now);
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
        // progress (fill-read issue is throttled per tick), so stay
        // dense while any exist. Otherwise only delayed buffer-hit
        // responses are timed; in-flight demand reads complete on HBM
        // device edges the system watches separately.
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

    fn setup() -> (Tid, Dram, Dram, SchemeEvents) {
        (
            Tid::new(TidConfig::paper(1 << 20)), // 1 MiB DC: 1024 lines
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

    fn run(
        tid: &mut Tid,
        hbm: &mut Dram,
        ddr: &mut Dram,
        ev: &mut SchemeEvents,
        from: Cycle,
        cycles: Cycle,
    ) -> Vec<MemResp> {
        let mut out = Vec::new();
        for now in from..from + cycles {
            tid.tick(now, hbm, ddr, &mut NoFlush, ev);
            out.append(&mut ev.responses);
            ev.clear();
        }
        out
    }

    #[test]
    fn cold_miss_fills_from_ddr_critical_first() {
        let (mut tid, mut hbm, mut ddr, mut ev) = setup();
        tid.access(read_at(1, 0x10040), 0); // block 1 of its line
        let out = run(&mut tid, &mut hbm, &mut ddr, &mut ev, 0, 3000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, ReqId(1));
        assert_eq!(tid.stats().tag_misses.get(), 1);
        assert_eq!(tid.stats().fills.get(), 1);
        assert_eq!(tid.stats().fill_bytes.get(), 1024);
        // Fill data was written into HBM.
        assert_eq!(hbm.stats().bytes_for(TrafficClass::Fill).written, 1024);
        // Critical-first: the response must arrive well before the
        // whole 1 KiB line could have been fetched serially.
        assert!(tid.stats().dc_access_time.mean() < 1000.0);
    }

    #[test]
    fn hit_costs_metadata_bandwidth() {
        let (mut tid, mut hbm, mut ddr, mut ev) = setup();
        tid.access(read_at(1, 0x10000), 0);
        run(&mut tid, &mut hbm, &mut ddr, &mut ev, 0, 3000);
        let metadata_before = hbm.stats().bytes_for(TrafficClass::Metadata).total();
        tid.access(read_at(2, 0x10000), 3000);
        let out = run(&mut tid, &mut hbm, &mut ddr, &mut ev, 3000, 2000);
        assert_eq!(out.len(), 1);
        assert_eq!(tid.stats().dc_data_hits.get(), 1);
        let metadata_after = hbm.stats().bytes_for(TrafficClass::Metadata).total();
        assert!(metadata_after > metadata_before, "tag read charged");
    }

    #[test]
    fn access_during_fill_waits_or_hits_buffer() {
        let (mut tid, mut hbm, mut ddr, mut ev) = setup();
        tid.access(read_at(1, 0x10000), 0);
        // Immediately request another block of the same line.
        tid.access(read_at(2, 0x10080), 1);
        let out = run(&mut tid, &mut hbm, &mut ddr, &mut ev, 0, 5000);
        assert_eq!(out.len(), 2);
        assert_eq!(tid.stats().data_misses.get(), 1);
        assert_eq!(tid.stats().tag_misses.get(), 1, "no second fill");
    }

    #[test]
    fn dirty_victim_written_back() {
        let (mut tid, mut hbm, mut ddr, mut ev) = setup();
        // Write-allocate a line, then evict it by filling its set.
        let w = DcAccessReq {
            token: ReqId(1),
            addr: BlockAddr::containing(0x10000),
            target: MemTarget::OffPackage,
            kind: AccessKind::Write,
            core: 0,
            wants_response: false,
        };
        tid.access(w, 0);
        run(&mut tid, &mut hbm, &mut ddr, &mut ev, 0, 4000);
        // 256 sets × 1 KiB lines: conflicting lines stride by 256 KiB.
        for k in 1..=4u64 {
            tid.access(read_at(10 + k, 0x10000 + k * 256 * 1024), 4000);
        }
        run(&mut tid, &mut hbm, &mut ddr, &mut ev, 4000, 20_000);
        assert_eq!(tid.stats().writebacks.get(), 1);
        assert_eq!(ddr.stats().bytes_for(TrafficClass::Writeback).written, 1024);
    }

    #[test]
    fn mshr_exhaustion_retries() {
        let (mut tid, mut hbm, mut ddr, mut ev) = setup();
        // 20 distinct lines with 16 MSHRs.
        for i in 0..20u64 {
            tid.access(read_at(i, i * 1024 + 0x4000_0000), 0);
        }
        let out = run(&mut tid, &mut hbm, &mut ddr, &mut ev, 0, 60_000);
        assert_eq!(out.len(), 20, "all eventually served");
        assert!(tid.stats().pcshr_full_events.get() > 0);
    }

    #[test]
    fn walk_is_conventional() {
        let mut tid = Tid::new(TidConfig::paper(1 << 20));
        match tid.walk(0, Vpn(3), nomad_types::SubBlockIdx(0), AccessKind::Read, 0) {
            WalkOutcome::Ready { entry } => {
                assert!(matches!(entry.frame, nomad_cache::FrameKind::Phys(_)))
            }
            _ => panic!("TiD never blocks the core"),
        }
    }
}
