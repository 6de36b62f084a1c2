//! One DRAM channel: per-bank command queues, FR-FCFS scheduler, data
//! bus and refresh.
//!
//! # Per-bank FR-FCFS
//!
//! Queued commands live in one slab of `queue_depth` slots, allocated
//! once in [`Channel::new`]. Live slots are threaded into one FIFO list
//! per bank through slot indices; free slots form a free list through
//! the same link. Every command carries a global *arrival number*, so
//! the age order FR-FCFS needs across banks is a comparison of two
//! numbers rather than a position in one shared queue. `queued_mask`
//! has bit `b` set while bank `b`'s list is non-empty (at most 64
//! banks per channel, enforced by [`BankFile`]).
//!
//! - Pass 1 (first ready): a command can CAS only when its bank is
//!   open and past its CAS timing, so only banks in
//!   `cas_ready_mask & queued_mask` are walked. Each walk stops at the
//!   bank's first bus-legal row hit (or at the first command younger
//!   than the best found so far), and the smallest arrival number
//!   among those issues — the oldest issuable row hit, as a scan of
//!   one arrival-ordered queue would find.
//! - Pass 2 (first come): each bank is decided by its oldest queued
//!   command. A head whose row is open is waiting on tCCD or the bus
//!   and protects its bank from precharge; a head on a conflicting row
//!   asks for PRE, one on a closed bank for ACT. The oldest head that
//!   can PRE or ACT issues. This is the old whole-queue scan's rule
//!   (which gated PRE on `!attempted && !protected` and ACT on
//!   `!attempted`) without visiting any command behind a bank head.
//!
//! The pre-refactor dense scan is kept under `#[cfg(test)]` as
//! [`Channel::tick_device_oracle`]. It walks every command in arrival
//! order (the bank lists merged by arrival number), and a seeded
//! differential test pins the scheduler to it cycle by cycle.

use crate::bank::BankFile;
use crate::config::{DramConfig, TimingParams};
use crate::device::Probe;
use crate::stats::DramStats;
use nomad_types::{AccessKind, ReqId, TrafficClass};

/// Error returned by [`Channel::try_push`] when the command queue is
/// full; the caller must retry later (backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePushError;

impl core::fmt::Display for QueuePushError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("channel command queue is full")
    }
}

impl std::error::Error for QueuePushError {}

/// End-of-list marker for slot links.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct QueuedCmd {
    token: ReqId,
    bank: usize,
    row: u64,
    kind: AccessKind,
    class: TrafficClass,
    wants_completion: bool,
    /// CPU cycle at which the request was pushed (for latency stats).
    push_cpu: u64,
    /// Full data burst or tag-only probe (sets the burst length).
    probe: Probe,
    /// Whether this request had to activate its row (row miss) — set
    /// when the scheduler ACTs on its behalf.
    needed_act: bool,
    /// Channel-wide arrival number: FR-FCFS age order across banks.
    arrival: u64,
    /// Next slot in this bank's list (or in the free list), [`NIL`] at
    /// the end.
    next: u32,
}

impl QueuedCmd {
    /// Contents of a free slot; overwritten by every push.
    const VACANT: QueuedCmd = QueuedCmd {
        token: ReqId(0),
        bank: 0,
        row: 0,
        kind: AccessKind::Read,
        class: TrafficClass::DemandRead,
        wants_completion: false,
        push_cpu: 0,
        probe: Probe::Data,
        needed_act: false,
        arrival: 0,
        next: NIL,
    };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChannelCompletion {
    pub token: ReqId,
    pub kind: AccessKind,
    pub class: TrafficClass,
    /// Device cycle at which the data transfer finishes.
    pub done_at: u64,
    pub wants_completion: bool,
    /// CPU cycle at which the request was pushed.
    pub push_cpu: u64,
    /// Full data burst or tag-only probe (sets the bytes transferred).
    pub probe: Probe,
    /// Whether the access hit an open row.
    pub row_hit: bool,
}

/// One independently scheduled DRAM channel.
#[derive(Debug)]
pub(crate) struct Channel {
    banks: BankFile,
    /// Command slab of `queue_depth` slots (see the module docs).
    slots: Vec<QueuedCmd>,
    /// First and last slot of each bank's FIFO, [`NIL`] when empty.
    bank_head: Vec<u32>,
    bank_tail: Vec<u32>,
    /// First free slot, [`NIL`] when the queue is full.
    free: u32,
    /// Queued commands.
    len: usize,
    /// Arrival number of the next pushed command.
    next_arrival: u64,
    /// Bit `b` set while bank `b`'s list is non-empty.
    queued_mask: u64,
    /// Device cycle after which the data bus is free.
    bus_free_at: u64,
    /// Earliest device cycle the next ACT may issue (tRRD).
    next_act_ok: u64,
    /// Earliest device cycles implied by the four-activate window: the
    /// oldest entry is when a new ACT stops violating tFAW.
    act_window: [u64; 4],
    /// Next scheduled refresh start.
    next_refresh: u64,
    /// If refreshing, the device cycle the refresh completes.
    refresh_until: Option<u64>,
    timing: TimingParams,
    /// Memoized [`next_interesting_dev_cycle`](Self::next_interesting_dev_cycle)
    /// result (unclamped), or [`BOUND_DIRTY`]. Every candidate in the
    /// bound is an absolute device cycle derived from channel state, so
    /// the value stays valid until the state mutates — each mutation
    /// site re-arms the sentinel via [`touch`](Self::touch). `Cell`
    /// keeps the query `&self` for the read-only kernel scans.
    bound_cache: std::cell::Cell<u64>,
}

/// Sentinel for an invalidated [`Channel::bound_cache`]; real bounds
/// are device-cycle numbers and never reach `u64::MAX`.
const BOUND_DIRTY: u64 = u64::MAX;

impl Channel {
    pub fn new(cfg: &DramConfig) -> Self {
        assert!(cfg.queue_depth < NIL as usize, "slot index overflows u32");
        let mut ch = Channel {
            banks: BankFile::new(cfg.banks_per_channel),
            slots: vec![QueuedCmd::VACANT; cfg.queue_depth],
            bank_head: vec![NIL; cfg.banks_per_channel],
            bank_tail: vec![NIL; cfg.banks_per_channel],
            free: NIL,
            len: 0,
            next_arrival: 0,
            queued_mask: 0,
            bus_free_at: 0,
            next_act_ok: 0,
            act_window: [0; 4],
            next_refresh: cfg.timing.t_refi,
            refresh_until: None,
            timing: cfg.timing,
            bound_cache: std::cell::Cell::new(BOUND_DIRTY),
        };
        ch.clear_queue();
        ch
    }

    /// Empty every bank list and thread all slots onto the free list.
    fn clear_queue(&mut self) {
        let n = self.slots.len() as u32;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.next = if i as u32 + 1 < n { i as u32 + 1 } else { NIL };
        }
        self.free = if n > 0 { 0 } else { NIL };
        self.bank_head.fill(NIL);
        self.bank_tail.fill(NIL);
        self.len = 0;
        self.next_arrival = 0;
        self.queued_mask = 0;
    }

    /// Return the channel to its just-constructed state (empty queue,
    /// idle banks, first refresh at `t_refi`), keeping every
    /// allocation — the arena-reuse path between sweep cells.
    pub fn reset(&mut self) {
        self.banks.reset();
        self.clear_queue();
        self.bus_free_at = 0;
        self.next_act_ok = 0;
        self.act_window = [0; 4];
        self.next_refresh = self.timing.t_refi;
        self.refresh_until = None;
        self.bound_cache.set(BOUND_DIRTY);
    }

    /// Invalidate the memoized issue bound; must be called by every
    /// mutation of state [`next_interesting_dev_cycle`](Self::next_interesting_dev_cycle)
    /// reads (queue, banks, bus, ACT gates, refresh schedule).
    #[inline]
    fn touch(&mut self) {
        self.bound_cache.set(BOUND_DIRTY);
    }

    /// Whether there is room for one more command.
    pub fn can_accept(&self) -> bool {
        self.free != NIL
    }

    /// Current queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.len
    }

    /// Enqueue a decoded command at the tail of its bank's list.
    #[allow(clippy::too_many_arguments)]
    pub fn try_push(
        &mut self,
        token: ReqId,
        bank: usize,
        row: u64,
        kind: AccessKind,
        class: TrafficClass,
        wants_completion: bool,
        push_cpu: u64,
        probe: Probe,
    ) -> Result<(), QueuePushError> {
        let s = self.free;
        if s == NIL {
            return Err(QueuePushError);
        }
        self.free = self.slots[s as usize].next;
        self.slots[s as usize] = QueuedCmd {
            token,
            bank,
            row,
            kind,
            class,
            wants_completion,
            push_cpu,
            probe,
            needed_act: false,
            arrival: self.next_arrival,
            next: NIL,
        };
        self.next_arrival += 1;
        match self.bank_tail[bank] {
            NIL => self.bank_head[bank] = s,
            tail => self.slots[tail as usize].next = s,
        }
        self.bank_tail[bank] = s;
        self.len += 1;
        self.queued_mask |= 1u64 << bank;
        self.touch();
        Ok(())
    }

    /// Unlink slot `s` (preceded by `prev`, or [`NIL`] at the head)
    /// from `bank`'s list, free it, and return its command.
    fn take_queued(&mut self, bank: usize, prev: u32, s: u32) -> QueuedCmd {
        let cmd = self.slots[s as usize];
        match prev {
            NIL => self.bank_head[bank] = cmd.next,
            p => self.slots[p as usize].next = cmd.next,
        }
        if self.bank_tail[bank] == s {
            self.bank_tail[bank] = prev;
        }
        if self.bank_head[bank] == NIL {
            self.queued_mask &= !(1u64 << bank);
        }
        self.slots[s as usize].next = self.free;
        self.free = s;
        self.len -= 1;
        cmd
    }

    fn act_allowed(&self, now: u64) -> bool {
        now >= self.next_act_ok && now >= self.act_window[0]
    }

    fn note_act(&mut self, now: u64) {
        self.next_act_ok = now + self.timing.t_rrd;
        self.act_window.rotate_left(1);
        self.act_window[3] = now + self.timing.t_faw;
    }

    /// Handle the refresh machinery for this cycle. Returns `true` when
    /// the cycle is consumed (refresh in progress or just started) and
    /// no command may issue.
    #[inline]
    fn tick_refresh(&mut self, now: u64, stats: &mut DramStats) -> bool {
        if let Some(until) = self.refresh_until {
            if now < until {
                return true;
            }
            self.refresh_until = None;
            self.touch();
        }
        if now >= self.next_refresh {
            // Wait for the bus and all banks to become precharge-able,
            // then refresh. The bus test is one compare; the bank scan
            // is sixteen.
            if now >= self.bus_free_at && now >= self.banks.max_busy_until() {
                let until = now + self.timing.t_rfc;
                self.banks.refresh_close_all(until);
                self.refresh_until = Some(until);
                self.next_refresh += self.timing.t_refi;
                self.touch();
                stats.refreshes.inc();
                return true;
            }
        }
        false
    }

    /// Issue the row-hit CAS in slot `s` of `bank`'s list (preceded by
    /// `prev`) and record its completion.
    fn issue_cas(
        &mut self,
        bank: usize,
        prev: u32,
        s: u32,
        now: u64,
        out: &mut Vec<ChannelCompletion>,
    ) {
        let t = self.timing;
        self.touch();
        let cmd = self.take_queued(bank, prev, s);
        let data_start = match cmd.kind {
            AccessKind::Read => {
                self.banks.read(cmd.bank, now, &t);
                now + t.t_cl
            }
            AccessKind::Write => {
                self.banks.write(cmd.bank, now, &t);
                now + t.t_cwl
            }
        };
        // The probe sets the burst length: a tag-only probe moves
        // `t_tag` beats instead of a full `t_burst` data burst, so it
        // both finishes and frees the bus earlier.
        let beats = match cmd.probe {
            Probe::Data => t.t_burst,
            Probe::TagOnly => t.t_tag,
        };
        self.bus_free_at = data_start + beats;
        out.push(ChannelCompletion {
            token: cmd.token,
            kind: cmd.kind,
            class: cmd.class,
            done_at: data_start + beats,
            wants_completion: cmd.wants_completion,
            push_cpu: cmd.push_cpu,
            probe: cmd.probe,
            row_hit: !cmd.needed_act,
        });
    }

    /// Advance one device cycle: maybe start/finish a refresh, then try
    /// to issue at most one command (FR-FCFS: oldest ready row-hit CAS,
    /// else prepare a bank for the oldest bank head that can move).
    pub fn tick_device(
        &mut self,
        now: u64,
        stats: &mut DramStats,
        out: &mut Vec<ChannelCompletion>,
    ) {
        if self.tick_refresh(now, stats) {
            return;
        }
        // With no refresh pending this cycle and nothing queued, the
        // scheduler has nothing to do.
        if self.queued_mask == 0 {
            return;
        }

        // FR-FCFS pass 1: oldest CAS-ready row hit whose bus slot is
        // free. Only banks in `candidates` (open, past CAS timing, and
        // actually queued) can hold one. None does while the bus frees
        // after even the later of a read's (tCL) and a write's (tCWL)
        // data-burst start.
        let t = self.timing;
        let read_ok = now + t.t_cl >= self.bus_free_at;
        let write_ok = now + t.t_cwl >= self.bus_free_at;
        let candidates = if read_ok || write_ok {
            self.banks.cas_ready_mask(now) & self.queued_mask
        } else {
            0
        };
        // (arrival, bank, prev slot, slot) of the oldest issuable hit.
        let mut hit: Option<(u64, usize, u32, u32)> = None;
        let mut m = candidates;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let Some(open) = self.banks.open_row(b) else {
                continue;
            };
            let mut prev = NIL;
            let mut s = self.bank_head[b];
            while s != NIL {
                let cmd = &self.slots[s as usize];
                if hit.is_some_and(|(oldest, ..)| cmd.arrival > oldest) {
                    break; // every later command on this bank is younger
                }
                let bus_ok = match cmd.kind {
                    AccessKind::Read => read_ok,
                    AccessKind::Write => write_ok,
                };
                if cmd.row == open && bus_ok {
                    hit = Some((cmd.arrival, b, prev, s));
                    break;
                }
                prev = s;
                s = cmd.next;
            }
        }
        if let Some((_, b, prev, s)) = hit {
            self.issue_cas(b, prev, s, now, out);
            return;
        }

        // FR-FCFS pass 2: prepare a bank for the oldest bank head that
        // can make progress. Considering every bank (instead of only
        // the oldest request's) is what exposes bank-level
        // parallelism; a head whose open row it still needs protects
        // its bank from precharge (no row stealing).
        let act_ok = self.act_allowed(now);
        // (arrival, bank, `Some(row)` to activate or `None` to
        // precharge) of the oldest head that can move.
        let mut prepare: Option<(u64, usize, Option<u64>)> = None;
        let mut m = self.queued_mask;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            let head = &self.slots[self.bank_head[b] as usize];
            if prepare.is_some_and(|(oldest, ..)| head.arrival > oldest) {
                continue;
            }
            let action = match self.banks.open_row(b) {
                // Row already open; waiting on tCCD or the bus.
                Some(open) if open == head.row => None,
                Some(_) => self.banks.can_pre(b, now).then_some(None),
                None => (act_ok && self.banks.can_act(b, now)).then_some(Some(head.row)),
            };
            if let Some(row) = action {
                prepare = Some((head.arrival, b, row));
            }
        }
        match prepare {
            Some((_, bank, None)) => self.banks.pre(bank, now, &t),
            Some((_, bank, Some(row))) => {
                self.banks.act(bank, row, now, &t);
                let head = self.bank_head[bank] as usize;
                self.slots[head].needed_act = true;
                self.note_act(now);
            }
            None => return,
        }
        self.touch();
    }

    /// `(bank, slot)` of every queued command in arrival order: the
    /// bank lists merged by arrival number.
    #[cfg(test)]
    fn arrival_order(&self) -> Vec<(usize, u32)> {
        let mut order = Vec::with_capacity(self.len);
        for (b, &head) in self.bank_head.iter().enumerate() {
            let mut s = head;
            while s != NIL {
                order.push((b, s));
                s = self.slots[s as usize].next;
            }
        }
        order.sort_by_key(|&(_, s)| self.slots[s as usize].arrival);
        order
    }

    /// The slot before `s` in `bank`'s list ([`NIL`] for the head).
    #[cfg(test)]
    fn prev_in_bank(&self, bank: usize, s: u32) -> u32 {
        let mut prev = NIL;
        let mut cur = self.bank_head[bank];
        while cur != s {
            prev = cur;
            cur = self.slots[cur as usize].next;
        }
        prev
    }

    /// The pre-refactor dense FR-FCFS scan, kept as a parity oracle for
    /// [`tick_device`](Self::tick_device): the same rules over every
    /// queued command, walked in arrival order.
    #[cfg(test)]
    pub(crate) fn tick_device_oracle(
        &mut self,
        now: u64,
        stats: &mut DramStats,
        out: &mut Vec<ChannelCompletion>,
    ) {
        if self.tick_refresh(now, stats) {
            return;
        }
        let order = self.arrival_order();

        // Pass 1: linear scan over every queued command.
        let t = self.timing;
        let mut cas = None;
        for &(bank, s) in &order {
            let cmd = &self.slots[s as usize];
            if self.banks.can_cas(cmd.bank, cmd.row, now) {
                let data_start = match cmd.kind {
                    AccessKind::Read => now + t.t_cl,
                    AccessKind::Write => now + t.t_cwl,
                };
                if data_start >= self.bus_free_at {
                    cas = Some((bank, s));
                    break;
                }
            }
        }
        if let Some((bank, s)) = cas {
            let prev = self.prev_in_bank(bank, s);
            self.issue_cas(bank, prev, s, now, out);
            return;
        }

        // Pass 2: full scan with per-command mask tests, no pruning.
        let act_ok = self.act_allowed(now);
        let mut protected: u64 = 0;
        let mut attempted: u64 = 0;
        for &(bank_idx, s) in &order {
            let row = self.slots[s as usize].row;
            let bit = 1u64 << (bank_idx & 63);
            match self.banks.open_row(bank_idx) {
                Some(open) if open == row => {
                    protected |= bit;
                }
                Some(_) => {
                    if attempted & bit == 0
                        && protected & bit == 0
                        && self.banks.can_pre(bank_idx, now)
                    {
                        self.banks.pre(bank_idx, now, &t);
                        self.touch();
                        return;
                    }
                    attempted |= bit;
                }
                None => {
                    if attempted & bit == 0 && self.banks.can_act(bank_idx, now) && act_ok {
                        self.banks.act(bank_idx, row, now, &t);
                        self.slots[s as usize].needed_act = true;
                        self.note_act(now);
                        self.touch();
                        return;
                    }
                    attempted |= bit;
                }
            }
        }
    }

    /// Earliest device cycle strictly after `after` at which
    /// [`tick_device`](Self::tick_device) could change channel state:
    /// finish or start a refresh, or issue a CAS/PRE/ACT for a queued
    /// command. `None` while the queue is empty — refresh-only progress
    /// is replayable in bulk ([`replay_idle_refreshes`](Self::replay_idle_refreshes)),
    /// so an empty channel needs no wake-up of its own.
    ///
    /// The bound is *exact or early, never late*: it is the minimum
    /// over per-command issue candidates computed from the live
    /// [`BankFile`] timing words, ignoring only constraints that can
    /// delay an issue further (FR-FCFS protected/attempted sets, row
    /// mismatches). Landing early costs one no-op tick; landing late
    /// would break dense/event parity.
    pub fn next_interesting_dev_cycle(&self, after: u64) -> Option<u64> {
        if self.queued_mask == 0 {
            return None;
        }
        // Mid-refresh the scheduler is frozen; nothing before `until`.
        if let Some(until) = self.refresh_until {
            return Some(until.max(after + 1));
        }
        let cached = self.bound_cache.get();
        if cached != BOUND_DIRTY {
            return Some(cached.max(after + 1));
        }
        // Refresh start: schedule, bank drain and bus must all allow it.
        // State is frozen inside a skip window, so the max is exact.
        let mut next = self
            .next_refresh
            .max(self.banks.max_busy_until())
            .max(self.bus_free_at);
        let t = self.timing;
        let act_gate = self.next_act_ok.max(self.act_window[0]);
        let mut banks = self.queued_mask;
        // Stop once nothing can be earlier than the next cycle.
        while banks != 0 && next > after + 1 {
            let b = banks.trailing_zeros() as usize;
            banks &= banks - 1;
            let Some(open) = self.banks.open_row(b) else {
                // Closed bank: every command would ACT, gated by tRRD
                // and the tFAW window.
                next = next.min(self.banks.act_ready_at(b).max(act_gate));
                continue;
            };
            let mut s = self.bank_head[b];
            while s != NIL && next > after + 1 {
                let cmd = &self.slots[s as usize];
                let cand = if cmd.row == open {
                    // CAS: bank CAS timing plus the data-bus gate
                    // (data_start = now + tCL/tCWL must be ≥ bus_free_at).
                    let lead = match cmd.kind {
                        AccessKind::Read => t.t_cl,
                        AccessKind::Write => t.t_cwl,
                    };
                    self.banks
                        .cas_ready_at(b)
                        .max(self.bus_free_at.saturating_sub(lead))
                } else {
                    // Row conflict: the scheduler would PRE this bank.
                    self.banks.pre_ready_at(b)
                };
                next = next.min(cand);
                s = cmd.next;
            }
        }
        // An early-exited scan may memoize a value below the true
        // minimum, but never above `after + 1`; re-reads then clamp to
        // `after + 1` — an *early* answer, which the kernel contract
        // tolerates (one no-op wake), never a late one.
        self.bound_cache.set(next);
        Some(next.max(after + 1))
    }

    /// Replay the refresh machinery over the idle device-cycle window
    /// `(from, to]` without ticking every cycle.
    ///
    /// Only valid while the command queue is empty: with no queued
    /// work, [`tick_device`](Self::tick_device) can do nothing except
    /// start and finish refreshes, whose schedule depends solely on
    /// channel-local state — so the window can be walked in
    /// O(#refreshes) jumps between "interesting" cycles instead of
    /// cycle by cycle. Produces bit-identical state and stats to dense
    /// ticking over the same window.
    pub fn replay_idle_refreshes(&mut self, from: u64, to: u64, stats: &mut DramStats) {
        debug_assert!(self.len == 0, "idle refresh replay with queued work");
        let mut cur = from;
        loop {
            // Next device cycle at which a dense tick would do
            // anything: finish the in-progress refresh, or start one
            // once the schedule, bank drain, and bus all allow it.
            let next = match self.refresh_until {
                Some(until) => until.max(cur + 1),
                None => {
                    let drain = self.banks.max_busy_until();
                    self.next_refresh
                        .max(drain)
                        .max(self.bus_free_at)
                        .max(cur + 1)
                }
            };
            if next > to {
                return;
            }
            self.refresh_until = None;
            if next >= self.next_refresh {
                let drain = self.banks.max_busy_until();
                if next >= drain && next >= self.bus_free_at {
                    let until = next + self.timing.t_rfc;
                    self.banks.refresh_close_all(until);
                    self.refresh_until = Some(until);
                    self.next_refresh += self.timing.t_refi;
                    stats.refreshes.inc();
                }
            }
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> (Channel, DramConfig) {
        let cfg = DramConfig::hbm();
        (Channel::new(&cfg), cfg)
    }

    fn drain_until(
        ch: &mut Channel,
        stats: &mut DramStats,
        max_cycles: u64,
    ) -> Vec<ChannelCompletion> {
        let mut out = Vec::new();
        for now in 0..max_cycles {
            ch.tick_device(now, stats, &mut out);
        }
        out
    }

    #[test]
    fn single_read_completes_with_idle_latency() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        ch.try_push(
            ReqId(1),
            0,
            5,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        let done = drain_until(&mut ch, &mut stats, 200);
        assert_eq!(done.len(), 1);
        let t = cfg.timing;
        // ACT at 0, CAS at tRCD, data done at tRCD + tCL + tBURST.
        assert_eq!(done[0].done_at, t.t_rcd + t.t_cl + t.t_burst);
        assert!(!done[0].row_hit);
    }

    #[test]
    fn second_read_same_row_is_a_row_hit() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        for i in 0..2 {
            ch.try_push(
                ReqId(i),
                0,
                5,
                AccessKind::Read,
                TrafficClass::DemandRead,
                true,
                0,
                Probe::Data,
            )
            .unwrap();
        }
        let done = drain_until(&mut ch, &mut stats, 300);
        assert_eq!(done.len(), 2);
        assert!(!done[0].row_hit);
        assert!(done[1].row_hit);
        assert!(done[1].done_at > done[0].done_at);
    }

    #[test]
    fn row_conflict_requires_pre_act() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        ch.try_push(
            ReqId(1),
            0,
            5,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        ch.try_push(
            ReqId(2),
            0,
            9,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        let done = drain_until(&mut ch, &mut stats, 500);
        assert_eq!(done.len(), 2);
        let t = cfg.timing;
        // Second access must wait ≥ tRAS + tRP + tRCD + tCL after the first ACT.
        assert!(done[1].done_at >= t.t_ras + t.t_rp + t.t_rcd + t.t_cl);
        assert!(!done[1].row_hit);
    }

    #[test]
    fn queue_backpressure() {
        let (mut ch, cfg) = channel();
        for i in 0..cfg.queue_depth as u64 {
            ch.try_push(
                ReqId(i),
                0,
                0,
                AccessKind::Read,
                TrafficClass::DemandRead,
                true,
                0,
                Probe::Data,
            )
            .unwrap();
        }
        assert!(!ch.can_accept());
        assert_eq!(
            ch.try_push(
                ReqId(99),
                0,
                0,
                AccessKind::Read,
                TrafficClass::DemandRead,
                true,
                0,
                Probe::Data
            ),
            Err(QueuePushError)
        );
    }

    #[test]
    fn bus_serializes_row_hit_bursts() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        // 8 row hits to the same row: completions must be spaced ≥ tBURST.
        for i in 0..8 {
            ch.try_push(
                ReqId(i),
                0,
                0,
                AccessKind::Read,
                TrafficClass::DemandRead,
                true,
                0,
                Probe::Data,
            )
            .unwrap();
        }
        let done = drain_until(&mut ch, &mut stats, 400);
        assert_eq!(done.len(), 8);
        for pair in done.windows(2) {
            assert!(pair[1].done_at >= pair[0].done_at + cfg.timing.t_burst);
        }
    }

    #[test]
    fn four_activate_window_throttles_acts() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        // Five row misses to five different banks: the fifth ACT must
        // wait for the four-activate window to slide.
        for i in 0..5 {
            ch.try_push(
                ReqId(i),
                i as usize,
                7,
                AccessKind::Read,
                TrafficClass::DemandRead,
                true,
                0,
                Probe::Data,
            )
            .unwrap();
        }
        let done = drain_until(&mut ch, &mut stats, 500);
        assert_eq!(done.len(), 5);
        let t = cfg.timing;
        // ACTs at 0, tRRD, 2·tRRD, 3·tRRD; the fifth no earlier than
        // tFAW. Its data can finish no earlier than tFAW + tRCD + tCL.
        let min_fifth = t.t_faw + t.t_rcd + t.t_cl + t.t_burst;
        let last = done.iter().map(|c| c.done_at).max().expect("non-empty");
        assert!(
            last >= min_fifth,
            "fifth access at {last}, needs >= {min_fifth}"
        );
    }

    #[test]
    fn refresh_eventually_happens() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        let mut out = Vec::new();
        for now in 0..(cfg.timing.t_refi * 3) {
            ch.tick_device(now, &mut stats, &mut out);
        }
        assert!(stats.refreshes.get() >= 2);
    }

    #[test]
    fn different_banks_overlap() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        ch.try_push(
            ReqId(1),
            0,
            5,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        ch.try_push(
            ReqId(2),
            1,
            7,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        let done = drain_until(&mut ch, &mut stats, 300);
        assert_eq!(done.len(), 2);
        let t = cfg.timing;
        // Bank-level parallelism: the second read should not pay a full
        // serialized PRE+ACT+CAS chain — only the tRRD ACT offset + burst.
        assert!(done[1].done_at <= t.t_rrd + t.t_rcd + t.t_cl + 2 * t.t_burst);
    }

    /// splitmix64 step, for a dependency-free seeded stream.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The masked scheduler must match the dense-scan oracle cycle by
    /// cycle under seeded random traffic: identical completions,
    /// identical refresh counts, identical residual queues.
    #[test]
    fn masked_scheduler_matches_dense_oracle() {
        for (seed, cfg) in [
            (1u64, DramConfig::hbm()),
            (2, DramConfig::hbm()),
            (3, DramConfig::ddr4_2ch()),
            (4, DramConfig::ddr4_2ch()),
        ] {
            let mut fast = Channel::new(&cfg);
            let mut dense = Channel::new(&cfg);
            let mut stats_fast = DramStats::new(&cfg);
            let mut stats_dense = DramStats::new(&cfg);
            let mut out_fast = Vec::new();
            let mut out_dense = Vec::new();
            let mut rng = seed;
            let mut token = 0u64;
            for now in 0..(cfg.timing.t_refi * 4) {
                // A bursty arrival process over few rows per bank keeps
                // all three scheduler outcomes (row hit, conflict,
                // empty-bank ACT) exercised.
                if mix(&mut rng).is_multiple_of(5) && fast.can_accept() {
                    token += 1;
                    let bank = (mix(&mut rng) % cfg.banks_per_channel as u64) as usize;
                    let row = mix(&mut rng) % 4;
                    let kind = if mix(&mut rng).is_multiple_of(3) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    fast.try_push(
                        ReqId(token),
                        bank,
                        row,
                        kind,
                        TrafficClass::DemandRead,
                        true,
                        now,
                        Probe::Data,
                    )
                    .unwrap();
                    dense
                        .try_push(
                            ReqId(token),
                            bank,
                            row,
                            kind,
                            TrafficClass::DemandRead,
                            true,
                            now,
                            Probe::Data,
                        )
                        .unwrap();
                }
                fast.tick_device(now, &mut stats_fast, &mut out_fast);
                dense.tick_device_oracle(now, &mut stats_dense, &mut out_dense);
                assert_eq!(out_fast, out_dense, "seed {seed} diverged at cycle {now}");
            }
            assert!(!out_fast.is_empty(), "traffic must complete something");
            assert_eq!(fast.queue_len(), dense.queue_len());
            assert_eq!(fast.queued_mask, dense.queued_mask);
            let residual = |ch: &Channel| -> Vec<(u64, bool)> {
                ch.arrival_order()
                    .into_iter()
                    .map(|(_, s)| {
                        let cmd = &ch.slots[s as usize];
                        (cmd.token.0, cmd.needed_act)
                    })
                    .collect()
            };
            assert_eq!(residual(&fast), residual(&dense));
            assert_eq!(stats_fast.refreshes.get(), stats_dense.refreshes.get());
        }
    }

    /// The empty-queue early-out must not perturb refresh scheduling.
    #[test]
    fn early_out_preserves_refresh_schedule() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        let mut out = Vec::new();
        // One access, then a long idle window spanning two refreshes.
        ch.try_push(
            ReqId(1),
            2,
            5,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        for now in 0..(cfg.timing.t_refi * 3) {
            ch.tick_device(now, &mut stats, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert!(stats.refreshes.get() >= 2);
    }
}
