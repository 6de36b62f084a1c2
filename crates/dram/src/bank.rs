//! Flat bank state: struct-of-arrays open-row tracking and per-bank
//! command timing for one channel's banks.
//!
//! The per-bank state machine used to live in a `Vec<Bank>` of small
//! structs. The scheduler in [`crate::channel`] touches this state every
//! device cycle, so it is flattened here into parallel arrays plus an
//! incrementally maintained *row-open bit-mask*: bit `b` of
//! [`BankFile::open_mask`] is set exactly when bank `b` has an open row.
//! That lets the FR-FCFS passes prune whole banks with one AND instead
//! of chasing `Option<u64>` per entry, while each per-bank method keeps
//! the exact semantics of the old `Bank` struct.

use crate::config::TimingParams;

/// State of one channel's banks in struct-of-arrays form: the open row,
/// and the earliest device cycles at which the next ACT/CAS/PRE commands
/// may issue, per bank.
#[derive(Debug, Clone)]
pub(crate) struct BankFile {
    /// Open row per bank; meaningful only where the matching bit of
    /// `open` is set.
    open_row: Vec<u64>,
    /// Earliest cycle an ACT may issue, per bank.
    act_at: Vec<u64>,
    /// Earliest cycle a CAS (read/write) may issue, per bank.
    cas_at: Vec<u64>,
    /// Earliest cycle a PRE may issue, per bank.
    pre_at: Vec<u64>,
    /// Bit `b` set when bank `b` has an open row.
    open: u64,
}

impl BankFile {
    /// A file of `banks` closed banks with no timing obligations.
    pub fn new(banks: usize) -> Self {
        // The scheduler's occupancy and row-open masks are single u64
        // words; one channel never has more than 64 banks in practice
        // (both presets use 16).
        assert!(
            banks > 0 && banks <= 64,
            "a channel holds between 1 and 64 banks"
        );
        BankFile {
            open_row: vec![0; banks],
            act_at: vec![0; banks],
            cas_at: vec![0; banks],
            pre_at: vec![0; banks],
            open: 0,
        }
    }

    /// Number of banks in the file.
    pub fn len(&self) -> usize {
        self.open_row.len()
    }

    /// Bit-mask of banks with an open row.
    #[cfg(test)]
    pub fn open_mask(&self) -> u64 {
        self.open
    }

    /// Currently open row of bank `b`.
    #[inline]
    pub fn open_row(&self, b: usize) -> Option<u64> {
        if self.open & (1u64 << b) != 0 {
            Some(self.open_row[b])
        } else {
            None
        }
    }

    /// Whether a CAS to `row` on bank `b` can issue at `now` without
    /// ACT/PRE. The scheduler reads the same condition off
    /// [`cas_ready_mask`](Self::cas_ready_mask) plus a row compare; this
    /// per-command form serves the dense test oracle.
    #[cfg(test)]
    pub fn can_cas(&self, b: usize, row: u64, now: u64) -> bool {
        self.open_row(b) == Some(row) && now >= self.cas_at[b]
    }

    /// Whether an ACT on bank `b` can issue at `now` (bank-local
    /// constraints only; tRRD/tFAW are channel-level).
    #[inline]
    pub fn can_act(&self, b: usize, now: u64) -> bool {
        self.open & (1u64 << b) == 0 && now >= self.act_at[b]
    }

    /// Whether a PRE on bank `b` can issue at `now`.
    #[inline]
    pub fn can_pre(&self, b: usize, now: u64) -> bool {
        self.open & (1u64 << b) != 0 && now >= self.pre_at[b]
    }

    /// Bit-mask of banks whose open row could accept a CAS at `now`
    /// (open and past the bank's CAS timing; the row match is per
    /// command).
    #[inline]
    pub fn cas_ready_mask(&self, now: u64) -> u64 {
        let mut m = self.open;
        let mut ready = 0u64;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            if now >= self.cas_at[b] {
                ready |= 1u64 << b;
            }
            m &= m - 1;
        }
        ready
    }

    /// Earliest device cycle a CAS may issue on bank `b` (bank-local
    /// timing only; the open-row and bus constraints are the
    /// scheduler's).
    #[inline]
    pub fn cas_ready_at(&self, b: usize) -> u64 {
        self.cas_at[b]
    }

    /// Earliest device cycle an ACT may issue on bank `b` (bank-local
    /// timing only; tRRD/tFAW are channel-level).
    #[inline]
    pub fn act_ready_at(&self, b: usize) -> u64 {
        self.act_at[b]
    }

    /// Earliest device cycle a PRE may issue on bank `b`.
    #[inline]
    pub fn pre_ready_at(&self, b: usize) -> u64 {
        self.pre_at[b]
    }

    /// Issue an ACT for `row` on bank `b` at `now`.
    pub fn act(&mut self, b: usize, row: u64, now: u64, t: &TimingParams) {
        debug_assert!(self.can_act(b, now));
        self.open |= 1u64 << b;
        self.open_row[b] = row;
        self.cas_at[b] = now + t.t_rcd;
        self.pre_at[b] = now + t.t_ras;
    }

    /// Issue a read CAS on bank `b` at `now`.
    pub fn read(&mut self, b: usize, now: u64, t: &TimingParams) {
        debug_assert!(now >= self.cas_at[b] && self.open & (1u64 << b) != 0);
        self.cas_at[b] = now + t.t_ccd;
        self.pre_at[b] = self.pre_at[b].max(now + t.t_rtp);
    }

    /// Issue a write CAS on bank `b` at `now`.
    pub fn write(&mut self, b: usize, now: u64, t: &TimingParams) {
        debug_assert!(now >= self.cas_at[b] && self.open & (1u64 << b) != 0);
        self.cas_at[b] = now + t.t_ccd;
        // Write recovery starts at the end of the write data burst.
        self.pre_at[b] = self.pre_at[b].max(now + t.t_cwl + t.t_burst + t.t_wr);
    }

    /// Issue a PRE on bank `b` at `now`.
    pub fn pre(&mut self, b: usize, now: u64, t: &TimingParams) {
        debug_assert!(self.can_pre(b, now));
        self.open &= !(1u64 << b);
        self.act_at[b] = now + t.t_rp;
    }

    /// Force-close every row for refresh: all rows closed, next ACT/CAS
    /// no earlier than `ready_at`.
    pub fn refresh_close_all(&mut self, ready_at: u64) {
        self.open = 0;
        for at in &mut self.act_at {
            *at = (*at).max(ready_at);
        }
        for at in &mut self.cas_at {
            *at = (*at).max(ready_at);
        }
    }

    /// Return every bank to the just-constructed state (all rows
    /// closed, no timing obligations), retaining the arrays'
    /// allocations — the arena-reuse path between sweep cells.
    pub fn reset(&mut self) {
        self.open_row.fill(0);
        self.act_at.fill(0);
        self.cas_at.fill(0);
        self.pre_at.fill(0);
        self.open = 0;
    }

    /// Latest timing obligation across all banks that must drain before
    /// a refresh can start.
    pub fn max_busy_until(&self) -> u64 {
        let mut max = 0;
        for b in 0..self.len() {
            let busy = if self.open & (1u64 << b) != 0 {
                self.pre_at[b]
            } else {
                self.act_at[b]
            };
            max = max.max(busy);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> TimingParams {
        crate::DramConfig::hbm().timing
    }

    #[test]
    fn act_then_cas_after_trcd() {
        let t = timing();
        let mut b = BankFile::new(1);
        assert!(b.can_act(0, 0));
        b.act(0, 5, 0, &t);
        assert!(!b.can_cas(0, 5, t.t_rcd - 1));
        assert!(b.can_cas(0, 5, t.t_rcd));
        assert!(!b.can_cas(0, 6, t.t_rcd), "different row must not CAS");
    }

    #[test]
    fn pre_respects_tras() {
        let t = timing();
        let mut b = BankFile::new(1);
        b.act(0, 1, 0, &t);
        assert!(!b.can_pre(0, t.t_ras - 1));
        assert!(b.can_pre(0, t.t_ras));
        b.pre(0, t.t_ras, &t);
        assert!(b.open_row(0).is_none());
        assert!(!b.can_act(0, t.t_ras + t.t_rp - 1));
        assert!(b.can_act(0, t.t_ras + t.t_rp));
    }

    #[test]
    fn write_extends_precharge_window() {
        let t = timing();
        let mut b = BankFile::new(1);
        b.act(0, 1, 0, &t);
        let now = t.t_rcd;
        b.write(0, now, &t);
        let write_done = now + t.t_cwl + t.t_burst + t.t_wr;
        assert!(!b.can_pre(0, write_done - 1));
        assert!(b.can_pre(0, write_done.max(t.t_ras)));
    }

    #[test]
    fn back_to_back_cas_respects_tccd() {
        let t = timing();
        let mut b = BankFile::new(1);
        b.act(0, 1, 0, &t);
        b.read(0, t.t_rcd, &t);
        assert!(!b.can_cas(0, 1, t.t_rcd + t.t_ccd - 1));
        assert!(b.can_cas(0, 1, t.t_rcd + t.t_ccd));
    }

    #[test]
    fn refresh_close_blocks_act() {
        let t = timing();
        let mut b = BankFile::new(1);
        b.act(0, 3, 0, &t);
        b.refresh_close_all(1000);
        assert!(b.open_row(0).is_none());
        assert!(!b.can_act(0, 999));
        assert!(b.can_act(0, 1000));
    }

    #[test]
    fn masks_track_bank_state() {
        let t = timing();
        let mut f = BankFile::new(4);
        assert_eq!(f.open_mask(), 0);
        f.act(1, 9, 0, &t);
        f.act(3, 2, t.t_rrd, &t);
        assert_eq!(f.open_mask(), 0b1010);
        // Bank 1 becomes CAS-ready at tRCD, bank 3 at tRRD + tRCD.
        assert_eq!(f.cas_ready_mask(t.t_rcd - 1), 0);
        assert_eq!(f.cas_ready_mask(t.t_rcd), 0b0010);
        assert_eq!(f.cas_ready_mask(t.t_rrd + t.t_rcd), 0b1010);
        f.pre(1, t.t_ras, &t);
        assert_eq!(f.open_mask(), 0b1000);
        f.refresh_close_all(5000);
        assert_eq!(f.open_mask(), 0);
        assert!(f.max_busy_until() >= 5000);
    }

    #[test]
    #[should_panic(expected = "between 1 and 64")]
    fn rejects_more_than_64_banks() {
        let _ = BankFile::new(65);
    }
}
