use pi3d_telemetry::rng::SplitMix64;
use std::error::Error;
use std::fmt;

/// One read request as seen by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRequest {
    /// Monotonic request id (arrival order).
    pub id: u64,
    /// Cycle at which the request reaches the controller.
    pub arrival: u64,
    /// Target channel.
    pub channel: usize,
    /// Target DRAM die (0 = bottom).
    pub die: usize,
    /// Target bank within the die.
    pub bank: usize,
    /// Target row.
    pub row: u32,
}

/// Configuration of the synthetic read-request stream (Section 2.3: 10,000
/// reads with temporal and spatial locality at an 80% row-hit rate, one
/// arrival every five DRAM cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of read requests to generate.
    pub count: usize,
    /// Cycles between consecutive arrivals.
    pub arrival_interval: u64,
    /// Probability that a request hits the row left open by the previous
    /// request to the same bank.
    pub row_hit_rate: f64,
    /// DRAM dies in the stack.
    pub dies: usize,
    /// Banks per die.
    pub banks_per_die: usize,
    /// Independent channels.
    pub channels: usize,
    /// Rows per bank (address-space size for the generator).
    pub rows: u32,
    /// RNG seed (the generator is fully deterministic given the spec).
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's stacked-DDR3 heavy workload: 10,000 reads, one every
    /// five cycles, 80% row hit rate, one channel over 4 dies × 8 banks.
    pub fn paper_ddr3() -> Self {
        WorkloadSpec {
            count: 10_000,
            arrival_interval: 5,
            row_hit_rate: 0.80,
            dies: 4,
            banks_per_die: 8,
            channels: 1,
            rows: 4096,
            seed: 0x0003_dd2a_2015,
        }
    }

    /// Generates the deterministic request stream.
    ///
    /// Spatial locality: the target bank performs a short random walk
    /// (most requests stay on the same die). Temporal locality: with
    /// probability `row_hit_rate` a request reuses the last row opened in
    /// its bank.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `row_hit_rate` is outside
    /// `[0, 1]`.
    pub fn generate(&self) -> Vec<ReadRequest> {
        assert!(self.count > 0 && self.dies > 0 && self.banks_per_die > 0);
        assert!(self.channels > 0 && self.rows > 0);
        assert!(
            (0.0..=1.0).contains(&self.row_hit_rate),
            "row_hit_rate must be in [0, 1]"
        );
        let mut rng = SplitMix64::new(self.seed);
        let mut last_row = vec![vec![0u32; self.banks_per_die]; self.dies];
        let mut requests = Vec::with_capacity(self.count);
        let mut die = 0usize;
        let mut bank = 0usize;
        for id in 0..self.count as u64 {
            // Spatial locality: a heavy multi-client workload hops dies and
            // banks frequently (the paper's standard policy is
            // activate-throttled, implying most reads reopen a row).
            // Die-level temporal locality: bursts of requests target the
            // same die (this is what distributed-read scheduling exploits),
            // while banks within the die spread widely, so most reads
            // reopen a row.
            if rng.next_f64() > 0.85 {
                die = rng.next_below(self.dies as u64) as usize;
            }
            if rng.next_f64() < 0.90 {
                bank = rng.next_below(self.banks_per_die as u64) as usize;
            }
            let row = if rng.next_f64() < self.row_hit_rate {
                last_row[die][bank]
            } else {
                rng.next_below(u64::from(self.rows)) as u32
            };
            last_row[die][bank] = row;
            requests.push(ReadRequest {
                id,
                arrival: id * self.arrival_interval,
                channel: (die * self.banks_per_die + bank) % self.channels,
                die,
                bank,
                row,
            });
        }
        requests
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_in_arrival_order() {
        let reqs = WorkloadSpec::paper_ddr3().generate();
        assert_eq!(reqs.len(), 10_000);
        for w in reqs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        assert_eq!(reqs[0].arrival, 0);
        assert_eq!(reqs.last().unwrap().arrival, 9_999 * 5);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorkloadSpec::paper_ddr3().generate();
        let b = WorkloadSpec::paper_ddr3().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = WorkloadSpec::paper_ddr3();
        spec.seed = 7;
        assert_ne!(spec.generate(), WorkloadSpec::paper_ddr3().generate());
    }

    #[test]
    fn addresses_are_in_range() {
        let spec = WorkloadSpec::paper_ddr3();
        for r in spec.generate() {
            assert!(r.die < spec.dies);
            assert!(r.bank < spec.banks_per_die);
            assert!(r.row < spec.rows);
            assert!(r.channel < spec.channels);
        }
    }

    #[test]
    fn row_hit_rate_is_roughly_respected() {
        // Measure back-to-back same-row accesses per bank.
        let spec = WorkloadSpec::paper_ddr3();
        let reqs = spec.generate();
        let mut last: Vec<Vec<Option<u32>>> = vec![vec![None; spec.banks_per_die]; spec.dies];
        let mut hits = 0usize;
        let mut total = 0usize;
        for r in &reqs {
            if let Some(prev) = last[r.die][r.bank] {
                total += 1;
                if prev == r.row {
                    hits += 1;
                }
            }
            last[r.die][r.bank] = Some(r.row);
        }
        let rate = hits as f64 / total as f64;
        assert!((0.70..0.92).contains(&rate), "measured row-hit rate {rate}");
    }

    #[test]
    fn all_dies_receive_traffic() {
        let reqs = WorkloadSpec::paper_ddr3().generate();
        for die in 0..4 {
            assert!(reqs.iter().any(|r| r.die == die), "die {die} starved");
        }
    }
}

/// Error returned when parsing a request-trace file fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line of the problem.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl Error for ParseTraceError {}

/// Parses a read-request trace.
///
/// One request per line: `arrival_cycle die bank row [channel]` (channel
/// defaults to 0); `#` starts a comment. Requests must be sorted by
/// arrival cycle.
///
/// # Errors
///
/// Returns [`ParseTraceError`] describing the first malformed or
/// out-of-order line.
///
/// # Examples
///
/// ```
/// use pi3d_memsim::parse_trace;
///
/// let trace = "# arrival die bank row\n0 3 1 42\n5 3 1 42\n10 0 7 9 0\n";
/// let requests = parse_trace(trace)?;
/// assert_eq!(requests.len(), 3);
/// assert_eq!(requests[2].bank, 7);
/// # Ok::<(), pi3d_memsim::ParseTraceError>(())
/// ```
pub fn parse_trace(text: &str) -> Result<Vec<ReadRequest>, ParseTraceError> {
    let mut requests = Vec::new();
    let mut last_arrival = 0u64;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| ParseTraceError {
            line: line_no,
            message,
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        if !(4..=5).contains(&fields.len()) {
            return Err(err(format!(
                "expected `arrival die bank row [channel]`, got {} fields",
                fields.len()
            )));
        }
        let arrival: u64 = fields[0]
            .parse()
            .map_err(|_| err(format!("bad arrival {:?}", fields[0])))?;
        let die: usize = fields[1]
            .parse()
            .map_err(|_| err(format!("bad die {:?}", fields[1])))?;
        let bank: usize = fields[2]
            .parse()
            .map_err(|_| err(format!("bad bank {:?}", fields[2])))?;
        let row: u32 = fields[3]
            .parse()
            .map_err(|_| err(format!("bad row {:?}", fields[3])))?;
        let channel: usize = match fields.get(4) {
            Some(c) => c.parse().map_err(|_| err(format!("bad channel {c:?}")))?,
            None => 0,
        };
        if arrival < last_arrival {
            return Err(err(format!(
                "arrival {arrival} is before the previous request ({last_arrival})"
            )));
        }
        last_arrival = arrival;
        requests.push(ReadRequest {
            id: requests.len() as u64,
            arrival,
            channel,
            die,
            bank,
            row,
        });
    }
    Ok(requests)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod trace_tests {
    use super::*;

    #[test]
    fn parses_comments_defaults_and_order() {
        let reqs = parse_trace("# header\n0 1 2 3\n\n7 0 0 0 1 # inline\n").unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(
            reqs[0],
            ReadRequest {
                id: 0,
                arrival: 0,
                channel: 0,
                die: 1,
                bank: 2,
                row: 3
            }
        );
        assert_eq!(reqs[1].channel, 1);
        assert_eq!(reqs[1].arrival, 7);
    }

    #[test]
    fn rejects_malformed_lines_with_position() {
        let e = parse_trace("0 1 2 3\nnot numbers\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_trace("5 0 0 0\n3 0 0 0\n").unwrap_err();
        assert!(e.to_string().contains("before the previous"));
        let e = parse_trace("0 1 2\n").unwrap_err();
        assert!(e.to_string().contains("fields"));
    }

    #[test]
    fn parsed_trace_runs_in_the_simulator() {
        use crate::{IrDropLut, MemorySimulator, ReadPolicy, SimConfig, TimingParams};
        use pi3d_layout::units::MilliVolts;

        let mut text = String::from("# generated\n");
        for i in 0..50u64 {
            text += &format!("{} {} {} {}\n", i * 6, i % 4, i % 8, i % 16);
        }
        let requests = parse_trace(&text).unwrap();
        let mut lut = IrDropLut::new(4);
        for a in 0..3u8 {
            for b in 0..3u8 {
                for c in 0..3u8 {
                    for d in 0..3u8 {
                        for act in [0.25, 0.5, 1.0] {
                            lut.insert(&[a, b, c, d], act, MilliVolts(10.0));
                        }
                    }
                }
            }
        }
        let sim = MemorySimulator::new(
            TimingParams::ddr3_1600(),
            SimConfig::paper_ddr3(),
            ReadPolicy::standard(),
            lut,
        );
        let stats = sim.run(&requests).unwrap();
        assert_eq!(stats.completed, 50);
    }
}
