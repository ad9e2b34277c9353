//! Communication and rank-health accounting counters shared by every
//! executor view.

use crate::phase::PhaseBreakdown;
use std::collections::BTreeSet;

/// Communication accounting for one rank (or, after `merge`, an aggregate
/// over ranks) — the empirical counterpart of the paper's communication
/// model `T_comm = c_bw·V_import + c_lat·n_msg` (Eq. 31).
///
/// This is plain data: the distributed engine fills one per rank, and a
/// run's metrics feed exports their per-step deltas.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommCounters {
    /// Messages sent.
    pub messages: u64,
    /// Bytes sent.
    pub bytes: u64,
    /// Ghost atoms imported (cumulative, like every counter here; the
    /// import-volume observable — take deltas for a per-step figure).
    pub ghosts_imported: u64,
    /// Atoms migrated away (cumulative).
    pub atoms_migrated: u64,
    /// Delivery retries performed after a validation failure or loss
    /// (cumulative; exposed by the `--measured` bench modes as the
    /// fault-overhead observable).
    pub retries: u64,
    /// Validated-exchange failures detected (checksum/epoch mismatches and
    /// lost payloads), whether or not a retry recovered them.
    pub faults_detected: u64,
    /// Distinct ranks this rank sent to.
    pub partners: BTreeSet<usize>,
    /// Tuples this rank accepted in its most recent force computation (a
    /// reading, not a count: `merge` leaves it out, since the run's total
    /// is its telemetry's `tuples`).
    pub tuples_accepted: u64,
    /// Cumulative phase breakdown of this rank's work (seconds since
    /// construction; `merge` sums it across ranks, so a merged total is
    /// summed per-rank CPU time, not wall time). Which slots are filled
    /// depends on the view: rank-local force computation fills
    /// bin/enumerate/eval/reduce, per-rank communicating executors also
    /// fill exchange/migrate/integrate and add the rank-to-rank force
    /// return to reduce, and wall-clock views live in a separate breakdown.
    pub phases: PhaseBreakdown,
}

impl CommCounters {
    /// Records a sent message.
    pub fn record_send(&mut self, to: usize, bytes: u64) {
        self.messages += 1;
        self.bytes += bytes;
        self.partners.insert(to);
    }

    /// Merges another rank's counters (for global totals).
    pub fn merge(&mut self, o: &CommCounters) {
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.ghosts_imported += o.ghosts_imported;
        self.atoms_migrated += o.atoms_migrated;
        self.retries += o.retries;
        self.faults_detected += o.faults_detected;
        self.partners.extend(o.partners.iter().copied());
        self.phases.accumulate(&o.phases);
    }
}

/// Cumulative transition counts of the distributed engine's per-rank health
/// watchdog. Monotonic across the watchdog's resets; all zero for an engine
/// without one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// `Healthy → Suspect` transitions.
    pub suspects: u64,
    /// Declared deaths: a peer whose consecutive failed deliveries reached
    /// the watchdog's deadline.
    pub deaths: u64,
    /// `Suspect → Healthy` recoveries.
    pub recoveries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    #[test]
    fn send_and_merge() {
        let mut s = CommCounters::default();
        s.record_send(3, 100);
        s.record_send(3, 50);
        s.record_send(5, 10);
        s.ghosts_imported = 7;
        s.phases.add(Phase::Exchange, 0.5);
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 160);
        assert_eq!(s.partners.len(), 2);
        let mut t = CommCounters::default();
        t.record_send(7, 1);
        t.merge(&s);
        assert_eq!(t.messages, 4);
        assert_eq!(t.partners.len(), 3);
        assert_eq!(t.phases.exchange_s(), 0.5);
        assert_eq!(t.ghosts_imported, 7);
    }
}
