/// Lifecycle phase of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankPhase {
    /// No row open.
    Idle,
    /// Row activation in flight (tRCD not yet elapsed).
    Activating {
        /// Row being opened.
        row: u32,
        /// Cycle at which the row becomes readable.
        ready_at: u64,
    },
    /// A row is open and readable.
    Active {
        /// The open row.
        row: u32,
    },
    /// Precharge in flight (tRP not yet elapsed).
    Precharging {
        /// Cycle at which the bank returns to idle.
        idle_at: u64,
    },
}

/// Cycle-accurate state of one DRAM bank.
///
/// The bank tracks its phase, the earliest cycle a precharge may issue
/// (tRAS), and the cycle of its last read (for the IR-drop-motivated
/// auto-close of Section 2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bank {
    phase: BankPhase,
    /// Earliest cycle a precharge may be issued (tRAS from activate).
    ras_done: u64,
    /// Cycle of the most recent read command (or activate).
    last_use: u64,
}

impl Bank {
    /// A fresh idle bank.
    pub fn new() -> Self {
        Bank {
            phase: BankPhase::Idle,
            ras_done: 0,
            last_use: 0,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> BankPhase {
        self.phase
    }

    /// Advances time: promotes finished activations/precharges.
    pub fn tick(&mut self, cycle: u64) {
        match self.phase {
            BankPhase::Activating { row, ready_at } if cycle >= ready_at => {
                self.phase = BankPhase::Active { row };
            }
            BankPhase::Precharging { idle_at } if cycle >= idle_at => {
                self.phase = BankPhase::Idle;
            }
            _ => {}
        }
    }

    /// Whether the bank contributes to the die's active-bank count for
    /// IR purposes (a row is open or opening).
    pub fn is_powered(&self) -> bool {
        matches!(
            self.phase,
            BankPhase::Activating { .. } | BankPhase::Active { .. }
        )
    }

    /// The open (or opening) row, if any.
    pub fn open_row(&self) -> Option<u32> {
        match self.phase {
            BankPhase::Activating { row, .. } | BankPhase::Active { row } => Some(row),
            _ => None,
        }
    }

    /// Whether a read of `row` can issue this cycle.
    pub fn can_read(&self, row: u32) -> bool {
        matches!(self.phase, BankPhase::Active { row: open } if open == row)
    }

    /// Whether an activate can issue this cycle (bank idle).
    pub fn can_activate(&self) -> bool {
        self.phase == BankPhase::Idle
    }

    /// Whether a precharge can issue this cycle (row open, tRAS elapsed).
    pub fn can_precharge(&self, cycle: u64) -> bool {
        matches!(self.phase, BankPhase::Active { .. }) && cycle >= self.ras_done
    }

    /// Issues an activate.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not idle.
    pub fn activate(&mut self, cycle: u64, row: u32, t_rcd: u32, t_ras: u32) {
        assert!(self.can_activate(), "activate on non-idle bank");
        self.phase = BankPhase::Activating {
            row,
            ready_at: cycle + t_rcd as u64,
        };
        self.ras_done = cycle + t_ras as u64;
        self.last_use = cycle;
    }

    /// Issues a read command (data timing is tracked by the channel).
    ///
    /// # Panics
    ///
    /// Panics if the open row does not match.
    pub fn read(&mut self, cycle: u64, row: u32) {
        assert!(self.can_read(row), "read on wrong row or unready bank");
        self.last_use = cycle;
    }

    /// Issues a precharge.
    ///
    /// # Panics
    ///
    /// Panics if the bank cannot precharge this cycle.
    pub fn precharge(&mut self, cycle: u64, t_rp: u32) {
        assert!(
            self.can_precharge(cycle),
            "precharge before tRAS or without open row"
        );
        self.phase = BankPhase::Precharging {
            idle_at: cycle + t_rp as u64,
        };
    }

    /// Cycles since the last read/activate (for auto-close).
    pub fn idle_for(&self, cycle: u64) -> u64 {
        cycle.saturating_sub(self.last_use)
    }
}

impl Default for Bank {
    fn default() -> Self {
        Bank::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn activate_read_precharge_lifecycle() {
        let mut b = Bank::new();
        assert!(b.can_activate());
        b.activate(100, 7, 11, 28);
        assert!(b.is_powered());
        assert!(!b.can_read(7), "tRCD not elapsed");

        b.tick(110);
        assert!(!b.can_read(7));
        b.tick(111);
        assert!(b.can_read(7));
        assert!(!b.can_read(8), "wrong row");

        b.read(112, 7);
        assert!(!b.can_precharge(120), "tRAS not elapsed");
        assert!(b.can_precharge(128));
        b.precharge(128, 11);
        assert!(!b.is_powered());
        b.tick(138);
        assert_eq!(b.phase(), BankPhase::Precharging { idle_at: 139 });
        b.tick(139);
        assert!(b.can_activate());
    }

    #[test]
    fn idle_for_tracks_last_use() {
        let mut b = Bank::new();
        b.activate(10, 1, 2, 5);
        b.tick(12);
        b.read(20, 1);
        assert_eq!(b.idle_for(28), 8);
    }

    #[test]
    fn open_row_reported_while_activating() {
        let mut b = Bank::new();
        b.activate(0, 42, 11, 28);
        assert_eq!(b.open_row(), Some(42));
    }

    #[test]
    #[should_panic(expected = "activate on non-idle bank")]
    fn double_activate_panics() {
        let mut b = Bank::new();
        b.activate(0, 1, 11, 28);
        b.activate(1, 2, 11, 28);
    }

    #[test]
    #[should_panic(expected = "precharge before tRAS")]
    fn early_precharge_panics() {
        let mut b = Bank::new();
        b.activate(0, 1, 11, 28);
        b.tick(11);
        b.precharge(12, 11);
    }
}
