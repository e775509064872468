//! The `pi3d` design-configuration file format, shared by the CLI
//! (which reads it from files) and the serve daemon (which accepts it
//! inline in requests and keys its warm cache on the canonical text).
//!
//! A design is described by a plain `key = value` file (comments start with
//! `#`); every key is optional and defaults to the selected benchmark's
//! baseline:
//!
//! ```text
//! # stacked DDR3 with F2F bonding and wire bonds
//! benchmark     = ddr3-off      # ddr3-off | ddr3-on | wideio | hmc
//! m2_usage      = 0.10
//! m3_usage      = 0.20
//! tsv_count     = 33
//! tsv_placement = edge          # center | edge | distributed
//! tsv_aligned   = false
//! bonding       = f2f           # f2b | f2f
//! mounting      = shared        # off-chip | shared | dedicated
//! rdl           = none          # none | bottom | all
//! wire_bond     = true
//! dram_dies     = 4
//! ```
//!
//! An optional fault block describes seeded PDN defects for commands
//! that inject them (`pi3d faults`); other commands ignore it:
//!
//! ```text
//! fault_seed      = 42
//! fault_tsv_open  = 0.05
//! fault_bump_open = 0.01
//! fault_via_void  = 0.005
//! fault_em_drift  = 0.2
//! ```
//!
//! An optional solver key selects the CG preconditioner for commands that
//! build a mesh; the `--precond` flag overrides it:
//!
//! ```text
//! precond = mg                  # jacobi | ic | mg
//! ```

use pi3d_layout::{
    Benchmark, BondingStyle, FaultSpec, Mounting, PdnSpec, RdlConfig, RdlScope, StackDesign,
    TsvConfig, TsvPlacement,
};
use pi3d_solver::Preconditioner;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced while parsing a design-configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the problem, if line-specific.
    pub line: Option<usize>,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "config line {line}: {}", self.message),
            None => write!(f, "config: {}", self.message),
        }
    }
}

impl Error for ConfigError {}

fn err(line: Option<usize>, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Parses the `key = value` format into a map, validating syntax and
/// rejecting duplicate keys.
fn parse_pairs(text: &str) -> Result<HashMap<String, (usize, String)>, ConfigError> {
    let mut pairs = HashMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(
                Some(line_no),
                format!("expected `key = value`, got {line:?}"),
            ));
        };
        let key = key.trim().to_ascii_lowercase();
        let value = value.trim().to_ascii_lowercase();
        if value.is_empty() {
            return Err(err(Some(line_no), format!("empty value for {key:?}")));
        }
        if pairs.insert(key.clone(), (line_no, value)).is_some() {
            return Err(err(Some(line_no), format!("duplicate key {key:?}")));
        }
    }
    Ok(pairs)
}

/// Parses a benchmark name (also used for CLI arguments).
pub fn parse_benchmark(text: &str) -> Result<Benchmark, ConfigError> {
    match text {
        "ddr3-off" | "ddr3_off" | "ddr3" => Ok(Benchmark::StackedDdr3OffChip),
        "ddr3-on" | "ddr3_on" => Ok(Benchmark::StackedDdr3OnChip),
        "wideio" | "wide-io" | "wide_io" => Ok(Benchmark::WideIo),
        "hmc" => Ok(Benchmark::Hmc),
        other => Err(err(
            None,
            format!("unknown benchmark {other:?} (use ddr3-off, ddr3-on, wideio, or hmc)"),
        )),
    }
}

/// Parses a preconditioner name (config `precond` key and `--precond`
/// flag share this vocabulary).
pub fn parse_precond(value: &str) -> Result<Preconditioner, ConfigError> {
    match value.to_ascii_lowercase().as_str() {
        "jacobi" => Ok(Preconditioner::Jacobi),
        "ic" | "ic0" | "incomplete-cholesky" => Ok(Preconditioner::IncompleteCholesky),
        "mg" | "multigrid" => Ok(Preconditioner::Multigrid),
        other => Err(err(
            None,
            format!("unknown preconditioner {other:?} (use jacobi, ic, or mg)"),
        )),
    }
}

/// Parses a full design-configuration file into a [`StackDesign`],
/// ignoring any fault block (see [`parse_design_with_faults`]).
///
/// # Errors
///
/// Returns a [`ConfigError`] describing the first syntax or semantic
/// problem, including design-rule violations reported by the layout
/// builder.
pub fn parse_design(text: &str) -> Result<StackDesign, ConfigError> {
    parse_design_full(text).map(|(design, _, _)| design)
}

/// Parses a design-configuration file together with its optional fault
/// block (`fault_seed`, `fault_tsv_open`, `fault_bump_open`,
/// `fault_via_void`, `fault_em_drift`). Returns `None` for the spec when
/// no fault key is present.
///
/// # Errors
///
/// As for [`parse_design`]; fault rates outside `[0, 1]` (or a negative
/// drift scale) are rejected with the offending parameter named.
pub fn parse_design_with_faults(
    text: &str,
) -> Result<(StackDesign, Option<FaultSpec>), ConfigError> {
    parse_design_full(text).map(|(design, faults, _)| (design, faults))
}

/// Parses a design-configuration file together with its optional fault
/// block and optional `precond` solver key (`None` when absent).
///
/// # Errors
///
/// As for [`parse_design_with_faults`].
pub fn parse_design_full(
    text: &str,
) -> Result<(StackDesign, Option<FaultSpec>, Option<Preconditioner>), ConfigError> {
    let mut pairs = parse_pairs(text)?;
    let mut take = |key: &str| pairs.remove(key);

    let benchmark = match take("benchmark") {
        Some((line, v)) => parse_benchmark(&v).map_err(|e| err(Some(line), e.message))?,
        None => Benchmark::StackedDdr3OffChip,
    };
    let baseline = StackDesign::baseline(benchmark);
    let mut builder = StackDesign::builder(benchmark);

    let parse_f64 = |line: usize, key: &str, v: &str| -> Result<f64, ConfigError> {
        v.parse()
            .map_err(|_| err(Some(line), format!("{key} must be a number, got {v:?}")))
    };
    let parse_bool = |line: usize, key: &str, v: &str| -> Result<bool, ConfigError> {
        match v {
            "true" | "yes" | "y" | "1" => Ok(true),
            "false" | "no" | "n" | "0" => Ok(false),
            _ => Err(err(
                Some(line),
                format!("{key} must be true/false, got {v:?}"),
            )),
        }
    };

    let m2 = match take("m2_usage") {
        Some((line, v)) => parse_f64(line, "m2_usage", &v)?,
        None => baseline.pdn().m2_usage(),
    };
    let m3 = match take("m3_usage") {
        Some((line, v)) => parse_f64(line, "m3_usage", &v)?,
        None => baseline.pdn().m3_usage(),
    };
    builder = builder.pdn(PdnSpec::new(m2, m3).map_err(|e| err(None, e.to_string()))?);

    let count = match take("tsv_count") {
        Some((line, v)) => v.parse::<usize>().map_err(|_| {
            err(
                Some(line),
                format!("tsv_count must be an integer, got {v:?}"),
            )
        })?,
        None => baseline.tsv().count(),
    };
    let placement = match take("tsv_placement") {
        Some((line, v)) => match v.as_str() {
            "center" | "centre" => TsvPlacement::Center,
            "edge" => TsvPlacement::Edge,
            "distributed" => TsvPlacement::Distributed,
            _ => return Err(err(Some(line), format!("unknown tsv_placement {v:?}"))),
        },
        None => baseline.tsv().placement(),
    };
    let mut tsv = TsvConfig::new(count, placement).map_err(|e| err(None, e.to_string()))?;
    if let Some((line, v)) = take("tsv_aligned") {
        tsv = tsv.with_alignment(parse_bool(line, "tsv_aligned", &v)?);
    }
    builder = builder.tsv(tsv);

    if let Some((line, v)) = take("bonding") {
        builder = builder.bonding(match v.as_str() {
            "f2b" => BondingStyle::F2B,
            "f2f" => BondingStyle::F2F,
            _ => {
                return Err(err(
                    Some(line),
                    format!("bonding must be f2b or f2f, got {v:?}"),
                ))
            }
        });
    }

    if let Some((line, v)) = take("mounting") {
        builder = builder.mounting(match v.as_str() {
            "off-chip" | "off_chip" | "offchip" => Mounting::OffChip,
            "shared" | "on-chip" | "on_chip" => Mounting::OnChip {
                dedicated_tsvs: false,
            },
            "dedicated" | "on-chip-dedicated" => Mounting::OnChip {
                dedicated_tsvs: true,
            },
            _ => {
                return Err(err(
                    Some(line),
                    format!("mounting must be off-chip, shared, or dedicated, got {v:?}"),
                ))
            }
        });
    }

    if let Some((line, v)) = take("rdl") {
        builder = builder.rdl(match v.as_str() {
            "none" | "no" => RdlConfig::none(),
            "bottom" => RdlConfig::enabled(RdlScope::BottomOnly),
            "all" => RdlConfig::enabled(RdlScope::AllDies),
            _ => {
                return Err(err(
                    Some(line),
                    format!("rdl must be none, bottom, or all, got {v:?}"),
                ))
            }
        });
    }

    if let Some((line, v)) = take("wire_bond") {
        builder = builder.wire_bond(parse_bool(line, "wire_bond", &v)?);
    }

    if let Some((line, v)) = take("dram_dies") {
        let dies: usize = v.parse().map_err(|_| {
            err(
                Some(line),
                format!("dram_dies must be an integer, got {v:?}"),
            )
        })?;
        if dies == 0 {
            return Err(err(Some(line), "dram_dies must be at least 1"));
        }
        builder = builder.dram_dies(dies);
    }

    let mut spec = FaultSpec::none();
    let mut any_fault = false;
    if let Some((line, v)) = take("fault_seed") {
        let seed: u64 = v.parse().map_err(|_| {
            err(
                Some(line),
                format!("fault_seed must be an integer, got {v:?}"),
            )
        })?;
        spec = spec.with_seed(seed);
        any_fault = true;
    }
    if let Some((line, v)) = take("fault_tsv_open") {
        spec = spec.with_tsv_open(parse_f64(line, "fault_tsv_open", &v)?);
        any_fault = true;
    }
    if let Some((line, v)) = take("fault_bump_open") {
        spec = spec.with_bump_open(parse_f64(line, "fault_bump_open", &v)?);
        any_fault = true;
    }
    if let Some((line, v)) = take("fault_via_void") {
        spec = spec.with_via_void(parse_f64(line, "fault_via_void", &v)?);
        any_fault = true;
    }
    if let Some((line, v)) = take("fault_em_drift") {
        spec = spec.with_em_drift(parse_f64(line, "fault_em_drift", &v)?);
        any_fault = true;
    }
    if any_fault {
        spec.validate().map_err(|e| err(None, e.to_string()))?;
    }

    let precond = match take("precond") {
        Some((line, v)) => Some(parse_precond(&v).map_err(|e| err(Some(line), e.message))?),
        None => None,
    };

    if let Some(key) = pairs.keys().next() {
        let (line, _) = pairs[key];
        return Err(err(Some(line), format!("unknown key {key:?}")));
    }

    let design = builder.build().map_err(|e| err(None, e.to_string()))?;
    Ok((design, any_fault.then_some(spec), precond))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_config_is_the_baseline() {
        let design = parse_design("").unwrap();
        assert_eq!(design, StackDesign::baseline(Benchmark::StackedDdr3OffChip));
    }

    #[test]
    fn full_config_round_trips() {
        let design = parse_design(
            "# comment\n\
             benchmark = ddr3-on\n\
             m2_usage = 0.15\n\
             m3_usage = 0.30   # inline comment\n\
             tsv_count = 60\n\
             tsv_placement = center\n\
             tsv_aligned = yes\n\
             bonding = f2f\n\
             mounting = shared\n\
             rdl = bottom\n\
             wire_bond = true\n",
        )
        .unwrap();
        assert_eq!(design.benchmark(), Benchmark::StackedDdr3OnChip);
        assert_eq!(design.pdn().m2_usage(), 0.15);
        assert_eq!(design.tsv().count(), 60);
        assert!(design.tsv().is_aligned());
        assert!(design.bonding().is_f2f());
        assert!(!design.mounting().has_dedicated_tsvs());
        assert!(design.rdl().is_enabled());
        assert!(design.has_wire_bond());
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let e = parse_design("benchmark = ddr3-off\nnot a pair\n").unwrap_err();
        assert_eq!(e.line, Some(2));

        let e = parse_design("m2_usage = abc\n").unwrap_err();
        assert_eq!(e.line, Some(1));
        assert!(e.to_string().contains("m2_usage"));
    }

    #[test]
    fn duplicate_and_unknown_keys_are_rejected() {
        let e = parse_design("m2_usage = 0.1\nm2_usage = 0.2\n").unwrap_err();
        assert!(e.to_string().contains("duplicate"));

        let e = parse_design("m2_frobnicate = 0.1\n").unwrap_err();
        assert!(e.to_string().contains("unknown key"));
    }

    #[test]
    fn design_rule_violations_surface() {
        // Wide I/O fixes TC at 160.
        let e = parse_design("benchmark = wideio\ntsv_count = 33\n").unwrap_err();
        assert!(e.to_string().contains("160"), "{e}");
    }

    #[test]
    fn parser_never_panics_on_arbitrary_text() {
        // A cheap deterministic fuzz: byte soup, truncated unicode, huge
        // numbers, and pathological key/value shapes must all produce
        // Ok or a clean ConfigError — never a panic.
        let cases = [
            "=",
            "= =",
            "benchmark =",
            "\u{0}\u{1}\u{2}",
            "m2_usage = 1e308\nm3_usage = -1e308",
            "tsv_count = 99999999999999999999",
            "benchmark = ddr3-off\nbenchmark = hmc",
            "🦀 = 🦀",
            "key==value",
            "a = b = c",
            "dram_dies = 0",
            "m2_usage = nan",
            "wire_bond = maybe",
        ];
        for case in cases {
            let _ = parse_design(case);
        }
        // And a pseudo-random soup.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..200 {
            let mut text = String::new();
            for _ in 0..(x % 17) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let c = char::from_u32((x % 0x250) as u32).unwrap_or('?');
                text.push(c);
                if x.is_multiple_of(7) {
                    text.push('=');
                }
                if x.is_multiple_of(11) {
                    text.push('\n');
                }
            }
            let _ = parse_design(&text);
        }
    }

    #[test]
    fn fault_block_round_trips() {
        let (design, spec) = parse_design_with_faults(
            "benchmark = ddr3-off\n\
             fault_seed = 42\n\
             fault_tsv_open = 0.05\n\
             fault_bump_open = 0.01\n\
             fault_via_void = 0.005\n\
             fault_em_drift = 0.2\n",
        )
        .unwrap();
        assert_eq!(design.benchmark(), Benchmark::StackedDdr3OffChip);
        let spec = spec.unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.tsv_open, 0.05);
        assert_eq!(spec.bump_open, 0.01);
        assert_eq!(spec.via_void, 0.005);
        assert_eq!(spec.em_drift, 0.2);

        // No fault keys -> no spec, and parse_design ignores the block.
        let (_, none) = parse_design_with_faults("benchmark = hmc\n").unwrap();
        assert!(none.is_none());
        assert!(parse_design("fault_tsv_open = 0.1\n").is_ok());
    }

    #[test]
    fn fault_rates_are_validated() {
        let e = parse_design_with_faults("fault_tsv_open = 1.5\n").unwrap_err();
        assert!(e.to_string().contains("tsv_open"), "{e}");
        assert!(parse_design_with_faults("fault_em_drift = -1\n").is_err());
        assert!(parse_design_with_faults("fault_seed = abc\n").is_err());
        assert!(parse_design_with_faults("fault_bump_open = nan\n").is_err());
    }

    #[test]
    fn precond_key_selects_the_preconditioner() {
        for (value, want) in [
            ("jacobi", Preconditioner::Jacobi),
            ("ic", Preconditioner::IncompleteCholesky),
            ("ic0", Preconditioner::IncompleteCholesky),
            ("mg", Preconditioner::Multigrid),
            ("multigrid", Preconditioner::Multigrid),
        ] {
            let (_, _, got) =
                parse_design_full(&format!("benchmark = hmc\nprecond = {value}\n")).unwrap();
            assert_eq!(got, Some(want), "{value}");
        }
        // Absent key -> None; the caller keeps its default.
        let (_, _, none) = parse_design_full("benchmark = hmc\n").unwrap();
        assert!(none.is_none());
        // Unknown values name the offending line and the accepted names.
        for value in ["sor", "none", "identity"] {
            let e = parse_design_full(&format!("precond = {value}\n")).unwrap_err();
            assert_eq!(e.line, Some(1));
            assert!(e.to_string().contains("use jacobi, ic, or mg"), "{e}");
        }
    }

    #[test]
    fn mutated_valid_configs_never_panic() {
        // Seeded mutation fuzz: start from valid configs and apply random
        // edits — byte flips, line duplication, truncation, splices. Every
        // mutant must parse to Ok or a clean ConfigError, never panic, and
        // errors must carry a usable message.
        let seeds = [
            "benchmark = ddr3-off\nm2_usage = 0.10\nm3_usage = 0.20\ntsv_count = 33\n",
            "benchmark = wideio\nbonding = f2f\nrdl = all\nwire_bond = true\n",
            "benchmark = hmc\nmounting = dedicated\ndram_dies = 8\n",
            "fault_seed = 7\nfault_tsv_open = 0.5\nfault_em_drift = 1.0\n",
        ];
        let mut rng = pi3d_telemetry::rng::SplitMix64::new(0x5eed_cf60);
        for _ in 0..400 {
            let base = seeds[rng.next_below(seeds.len() as u64) as usize];
            let mut text: Vec<u8> = base.bytes().collect();
            for _ in 0..rng.range(1, 6) {
                match rng.next_below(4) {
                    0 => {
                        // Flip one byte to a printable-ish character.
                        let i = rng.next_below(text.len() as u64) as usize;
                        text[i] = (rng.range(9, 127)) as u8;
                    }
                    1 => {
                        // Duplicate a line.
                        let copy = text.clone();
                        let lines: Vec<&[u8]> = copy.split(|&b| b == b'\n').collect();
                        let line = lines[rng.next_below(lines.len() as u64) as usize];
                        text.extend_from_slice(line);
                        text.push(b'\n');
                    }
                    2 => {
                        // Truncate.
                        let keep = rng.next_below(text.len() as u64 + 1) as usize;
                        text.truncate(keep);
                    }
                    _ => {
                        // Splice a random token.
                        let tokens: [&[u8]; 6] =
                            [b"=", b"#", b"\n", b"1e308", b"fault_", b"\xf0\x9f\xa6\x80"];
                        let t = tokens[rng.next_below(6) as usize];
                        let i = rng.next_below(text.len() as u64 + 1) as usize;
                        text.splice(i..i, t.iter().copied());
                    }
                }
                if text.is_empty() {
                    text = base.bytes().collect();
                }
            }
            let text = String::from_utf8_lossy(&text);
            match parse_design_with_faults(&text) {
                Ok(_) => {}
                Err(e) => assert!(!e.message.is_empty(), "empty error for {text:?}"),
            }
        }
    }

    #[test]
    fn benchmark_aliases() {
        assert_eq!(parse_benchmark("wide-io").unwrap(), Benchmark::WideIo);
        assert_eq!(parse_benchmark("hmc").unwrap(), Benchmark::Hmc);
        assert!(parse_benchmark("dram9000").is_err());
    }
}
