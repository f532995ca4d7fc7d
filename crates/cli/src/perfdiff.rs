//! `bikron perfdiff` — compare two `bikron-obs` JSON reports and gate on
//! phase regressions.
//!
//! This turns `BENCH_kron.json` from a file we write into a contract we
//! enforce: CI regenerates the report and diffs it against the committed
//! baseline; any watched phase whose total wall-clock grew beyond the
//! threshold fails the run (unless `--warn-only`). Counters and
//! histogram tails are diffed too — a counter drift means the *workload*
//! changed (formula drift, lost edges), which is worth seeing in the
//! same table even though only phases gate.
//!
//! Reports of both schema versions are accepted ([`bikron_obs::Report::from_json`]);
//! a v1 baseline simply has no histogram rows.
//!
//! With `--profile BASE.folded CAND.folded` the diff runs over sampled
//! CPU profiles instead: per-frame **self-time share** (what fraction of
//! all samples landed in this frame itself) is compared, and a watched
//! frame whose share grew beyond the threshold fails the gate. Shares —
//! not raw sample counts — so a longer candidate run does not read as a
//! regression; an absolute floor of one percentage point keeps sampling
//! noise on cold frames from tripping the relative threshold.

use std::io::Write;

use bikron_obs::profile::frame_totals;
use bikron_obs::{ProfileSnapshot, Report};

/// Configuration for a perfdiff run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfDiffConfig {
    /// Allowed growth of a watched phase's `total_ns`, in percent
    /// (e.g. 25 = up to 1.25× the baseline passes).
    pub threshold_pct: u64,
    /// Report regressions but always pass.
    pub warn_only: bool,
    /// Phases to gate on. `None` gates every top-level phase present in
    /// both reports; an explicit list additionally *requires* each named
    /// phase to exist in both.
    pub watch: Option<Vec<String>>,
}

impl Default for PerfDiffConfig {
    fn default() -> Self {
        PerfDiffConfig {
            // Generous by design: CI wall-clock is noisy, and the gate
            // exists to catch 2× cliffs, not 3% jitter.
            threshold_pct: 25,
            warn_only: false,
            watch: None,
        }
    }
}

/// Outcome of one watched phase.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Verdict {
    Ok,
    Faster,
    Regressed,
    Missing,
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Signed percent delta, one decimal, computed in integer arithmetic.
fn fmt_delta_pct(base: u64, cand: u64) -> String {
    if base == 0 {
        return if cand == 0 {
            "+0.0%".into()
        } else {
            "new".into()
        };
    }
    let (sign, diff) = if cand >= base {
        ("+", cand - base)
    } else {
        ("-", base - cand)
    };
    let tenths = (diff as u128 * 1000 / base as u128) as u64;
    format!("{sign}{}.{}%", tenths / 10, tenths % 10)
}

/// Whether `cand` exceeds `base` by more than `threshold_pct` percent.
fn regressed(base: u64, cand: u64, threshold_pct: u64) -> bool {
    (cand as u128) * 100 > (base as u128) * (100 + threshold_pct as u128)
}

/// Compare `baseline` and `candidate`, print the delta table to `out`,
/// and return `true` when the gate passes (no watched phase regressed,
/// or `warn_only`). An explicitly watched phase missing from either
/// report fails the gate.
pub fn perfdiff(
    baseline: &Report,
    candidate: &Report,
    cfg: &PerfDiffConfig,
    out: &mut dyn Write,
) -> std::io::Result<bool> {
    writeln!(
        out,
        "perfdiff: baseline schema v{}, candidate schema v{}, threshold {}%{}",
        baseline.schema_version(),
        candidate.schema_version(),
        cfg.threshold_pct,
        if cfg.warn_only { " (warn-only)" } else { "" },
    )?;

    // Watched set: explicit list, or all top-level phases in both.
    let watched: Vec<String> = match &cfg.watch {
        Some(list) => list.clone(),
        None => baseline
            .timers()
            .filter(|(name, _)| !name.contains('/') && candidate.timer(name).is_some())
            .map(|(name, _)| name.to_string())
            .collect(),
    };

    writeln!(
        out,
        "\n  {:<34} {:>12} {:>12} {:>9}  status",
        "phase", "base ms", "cand ms", "delta"
    )?;
    let mut failures = 0usize;
    for name in &watched {
        let (verdict, base_ns, cand_ns) = match (baseline.timer(name), candidate.timer(name)) {
            (Some(b), Some(c)) => {
                let v = if regressed(b.total_ns, c.total_ns, cfg.threshold_pct) {
                    Verdict::Regressed
                } else if b.total_ns > 0 && c.total_ns < b.total_ns {
                    Verdict::Faster
                } else {
                    Verdict::Ok
                };
                (v, b.total_ns, c.total_ns)
            }
            (b, c) => (
                Verdict::Missing,
                b.map_or(0, |t| t.total_ns),
                c.map_or(0, |t| t.total_ns),
            ),
        };
        let status = match verdict {
            Verdict::Ok => "ok",
            Verdict::Faster => "faster",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "MISSING",
        };
        if matches!(verdict, Verdict::Regressed | Verdict::Missing) {
            failures += 1;
        }
        writeln!(
            out,
            "  {:<34} {:>12} {:>12} {:>9}  {}",
            name,
            fmt_ms(base_ns),
            fmt_ms(cand_ns),
            fmt_delta_pct(base_ns, cand_ns),
            status,
        )?;
    }

    // Non-gating context: unwatched phases that appeared or vanished.
    for (name, _) in baseline.timers().filter(|(n, _)| !n.contains('/')) {
        if candidate.timer(name).is_none() && !watched.iter().any(|w| w == name) {
            writeln!(out, "  {name:<34} (phase gone from candidate)")?;
        }
    }
    for (name, _) in candidate.timers().filter(|(n, _)| !n.contains('/')) {
        if baseline.timer(name).is_none() && !watched.iter().any(|w| w == name) {
            writeln!(out, "  {name:<34} (new phase in candidate)")?;
        }
    }

    // Counters: exact integers, so any delta is workload drift, not
    // noise. Informational — the phase gate decides pass/fail.
    let mut drift = 0usize;
    let mut header_done = false;
    for (name, b) in baseline.counters() {
        let c = candidate.counter(name).unwrap_or(0);
        if b != c {
            if !header_done {
                writeln!(
                    out,
                    "\n  {:<34} {:>14} {:>14} {:>9}",
                    "counter", "base", "cand", "delta"
                )?;
                header_done = true;
            }
            drift += 1;
            writeln!(
                out,
                "  {:<34} {:>14} {:>14} {:>9}",
                name,
                b,
                c,
                fmt_delta_pct(b, c)
            )?;
        }
    }
    for (name, c) in candidate.counters() {
        if baseline.counter(name).is_none() {
            if !header_done {
                writeln!(
                    out,
                    "\n  {:<34} {:>14} {:>14} {:>9}",
                    "counter", "base", "cand", "delta"
                )?;
                header_done = true;
            }
            drift += 1;
            writeln!(out, "  {:<34} {:>14} {:>14} {:>9}", name, 0, c, "new")?;
        }
    }

    // Histogram tails: distribution shift at p50/p99 for shared names.
    let shared_hists: Vec<&str> = baseline
        .histograms()
        .filter(|(n, _)| candidate.histogram(n).is_some())
        .map(|(n, _)| n)
        .collect();
    if !shared_hists.is_empty() {
        writeln!(
            out,
            "\n  {:<34} {:>14} {:>14} {:>14} {:>14}",
            "histogram", "base p50", "cand p50", "base p99", "cand p99"
        )?;
        for name in shared_hists {
            let b = baseline.histogram(name).expect("filtered on presence");
            let c = candidate.histogram(name).expect("filtered on presence");
            writeln!(
                out,
                "  {:<34} {:>14} {:>14} {:>14} {:>14}",
                name,
                b.percentile(50),
                c.percentile(50),
                b.percentile(99),
                c.percentile(99),
            )?;
        }
    }

    let pass = failures == 0 || cfg.warn_only;
    writeln!(
        out,
        "\nperfdiff: {} watched phase(s), {} regression(s), {} counter drift(s) -> {}",
        watched.len(),
        failures,
        drift,
        if failures == 0 {
            "PASS"
        } else if cfg.warn_only {
            "FAIL (ignored: warn-only)"
        } else {
            "FAIL"
        },
    )?;
    Ok(pass)
}

/// Load both reports from disk and run [`perfdiff`].
pub fn perfdiff_files(
    baseline_path: &str,
    candidate_path: &str,
    cfg: &PerfDiffConfig,
    out: &mut dyn Write,
) -> Result<bool, Box<dyn std::error::Error>> {
    let load = |path: &str| -> Result<Report, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read report {path:?}: {e}"))?;
        Ok(Report::from_json(&text).map_err(|e| format!("in {path:?}: {e}"))?)
    };
    Ok(perfdiff(
        &load(baseline_path)?,
        &load(candidate_path)?,
        cfg,
        out,
    )?)
}

/// Minimum self-time share (basis points of all samples) for a frame to
/// be auto-watched, and the minimum *absolute* share growth before the
/// relative threshold can fail a frame. One percentage point: below
/// that, 99 Hz sampling noise dominates.
const PROFILE_FLOOR_BP: u64 = 100;

/// Self-time share of each frame in basis points (1/100 of a percent)
/// of the snapshot's total samples.
fn self_shares_bp(snap: &ProfileSnapshot) -> std::collections::BTreeMap<String, u64> {
    let total = snap.samples.max(1);
    frame_totals(&snap.stacks)
        .into_iter()
        .map(|(path, stat)| (path, stat.self_samples * 10_000 / total))
        .collect()
}

/// Render basis points as a percentage with one decimal (`1234` → `12.3%`).
fn fmt_bp(bp: u64) -> String {
    format!("{}.{}%", bp / 100, bp % 100 / 10)
}

/// Compare two sampled profiles by per-frame self-time share; print the
/// delta table and return `true` when the gate passes. Watched frames:
/// the explicit `cfg.watch` list (each then *required* in the baseline),
/// or every baseline frame with at least 1% self share. A frame fails
/// when its share grows beyond `threshold_pct` relative *and* by at
/// least one absolute percentage point.
pub fn perfdiff_profiles(
    baseline: &ProfileSnapshot,
    candidate: &ProfileSnapshot,
    cfg: &PerfDiffConfig,
    out: &mut dyn Write,
) -> std::io::Result<bool> {
    writeln!(
        out,
        "perfdiff --profile: baseline {} sample(s), candidate {} sample(s), threshold {}%{}",
        baseline.samples,
        candidate.samples,
        cfg.threshold_pct,
        if cfg.warn_only { " (warn-only)" } else { "" },
    )?;
    let base = self_shares_bp(baseline);
    let cand = self_shares_bp(candidate);

    let watched: Vec<String> = match &cfg.watch {
        Some(list) => list.clone(),
        None => base
            .iter()
            .filter(|&(_, &bp)| bp >= PROFILE_FLOOR_BP)
            .map(|(path, _)| path.clone())
            .collect(),
    };

    writeln!(
        out,
        "\n  {:<44} {:>9} {:>9} {:>9}  status",
        "frame", "base self", "cand self", "delta"
    )?;
    let mut failures = 0usize;
    for name in &watched {
        let (verdict, base_bp, cand_bp) = match (base.get(name), cand.get(name)) {
            (Some(&b), c) => {
                let c = c.copied().unwrap_or(0);
                let v = if regressed(b, c, cfg.threshold_pct)
                    && c.saturating_sub(b) >= PROFILE_FLOOR_BP
                {
                    Verdict::Regressed
                } else if c < b {
                    Verdict::Faster
                } else {
                    Verdict::Ok
                };
                (v, b, c)
            }
            // Only an explicit watch list can name a frame the baseline
            // lacks — that is a config error worth failing on.
            (None, c) => (Verdict::Missing, 0, c.copied().unwrap_or(0)),
        };
        let status = match verdict {
            Verdict::Ok => "ok",
            Verdict::Faster => "faster",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "MISSING",
        };
        if matches!(verdict, Verdict::Regressed | Verdict::Missing) {
            failures += 1;
        }
        writeln!(
            out,
            "  {:<44} {:>9} {:>9} {:>9}  {}",
            name,
            fmt_bp(base_bp),
            fmt_bp(cand_bp),
            fmt_delta_pct(base_bp, cand_bp),
            status,
        )?;
    }

    // Non-gating context: hot frames the candidate grew that the
    // baseline never had — a brand-new hot path is worth eyeballing
    // even though only share growth gates.
    for (name, &bp) in &cand {
        if bp >= PROFILE_FLOOR_BP && !base.contains_key(name) && !watched.iter().any(|w| w == name)
        {
            writeln!(out, "  {:<44} (new frame at {} self)", name, fmt_bp(bp))?;
        }
    }

    let pass = failures == 0 || cfg.warn_only;
    writeln!(
        out,
        "\nperfdiff --profile: {} watched frame(s), {} regression(s) -> {}",
        watched.len(),
        failures,
        if failures == 0 {
            "PASS"
        } else if cfg.warn_only {
            "FAIL (ignored: warn-only)"
        } else {
            "FAIL"
        },
    )?;
    Ok(pass)
}

/// Load two folded-flamegraph files and run [`perfdiff_profiles`].
pub fn perfdiff_profile_files(
    baseline_path: &str,
    candidate_path: &str,
    cfg: &PerfDiffConfig,
    out: &mut dyn Write,
) -> Result<bool, Box<dyn std::error::Error>> {
    let load = |path: &str| -> Result<ProfileSnapshot, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read profile {path:?}: {e}"))?;
        Ok(ProfileSnapshot::parse_folded(&text).map_err(|e| format!("in {path:?}: {e}"))?)
    };
    Ok(perfdiff_profiles(
        &load(baseline_path)?,
        &load(candidate_path)?,
        cfg,
        out,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal report with the given phase totals and counters.
    fn report(timers: &[(&str, u64)], counters: &[(&str, u64)]) -> Report {
        let json = {
            let t: Vec<String> = timers
                .iter()
                .map(|(n, total)| {
                    format!(
                        "\"{n}\": {{\"count\": 1, \"total_ns\": {total}, \"min_ns\": {total}, \"max_ns\": {total}, \"mean_ns\": {total}}}"
                    )
                })
                .collect();
            let c: Vec<String> = counters
                .iter()
                .map(|(n, v)| format!("\"{n}\": {v}"))
                .collect();
            format!(
                "{{\"schema\": \"bikron-obs/2\", \"timers\": {{{}}}, \"counters\": {{{}}}}}",
                t.join(", "),
                c.join(", ")
            )
        };
        Report::from_json(&json).unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(&[("generate", 1_000_000)], &[("edges", 42)]);
        let mut out = Vec::new();
        assert!(perfdiff(&r, &r, &PerfDiffConfig::default(), &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("PASS"), "{text}");
        assert!(text.contains("0 regression(s)"), "{text}");
    }

    #[test]
    fn synthetic_regression_fails_the_gate() {
        let base = report(&[("generate", 1_000_000), ("reduce", 500_000)], &[]);
        // generate got 2× slower: beyond any sane threshold.
        let cand = report(&[("generate", 2_000_000), ("reduce", 500_000)], &[]);
        let mut out = Vec::new();
        let pass = perfdiff(&base, &cand, &PerfDiffConfig::default(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!pass, "2x regression must fail:\n{text}");
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("+100.0%"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
    }

    #[test]
    fn threshold_is_respected_and_configurable() {
        let base = report(&[("p", 1_000_000)], &[]);
        let cand = report(&[("p", 1_200_000)], &[]);
        let mut out = Vec::new();
        // +20% passes at the default 25% threshold…
        assert!(perfdiff(&base, &cand, &PerfDiffConfig::default(), &mut out).unwrap());
        // …and fails at a 10% threshold.
        let strict = PerfDiffConfig {
            threshold_pct: 10,
            ..PerfDiffConfig::default()
        };
        assert!(!perfdiff(&base, &cand, &strict, &mut out).unwrap());
    }

    #[test]
    fn warn_only_reports_but_passes() {
        let base = report(&[("p", 1_000)], &[]);
        let cand = report(&[("p", 10_000)], &[]);
        let cfg = PerfDiffConfig {
            warn_only: true,
            ..PerfDiffConfig::default()
        };
        let mut out = Vec::new();
        assert!(perfdiff(&base, &cand, &cfg, &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("warn-only"), "{text}");
    }

    #[test]
    fn explicit_watch_requires_presence() {
        let base = report(&[("p", 1_000)], &[]);
        let cand = report(&[("q", 1_000)], &[]);
        let cfg = PerfDiffConfig {
            watch: Some(vec!["p".into()]),
            ..PerfDiffConfig::default()
        };
        let mut out = Vec::new();
        assert!(!perfdiff(&base, &cand, &cfg, &mut out).unwrap());
        assert!(String::from_utf8(out).unwrap().contains("MISSING"));
    }

    #[test]
    fn counter_drift_is_reported_not_gated() {
        let base = report(&[("p", 1_000)], &[("edges", 100)]);
        let cand = report(&[("p", 1_000)], &[("edges", 90), ("squares", 7)]);
        let mut out = Vec::new();
        assert!(perfdiff(&base, &cand, &PerfDiffConfig::default(), &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("edges"), "{text}");
        assert!(text.contains("-10.0%"), "{text}");
        assert!(text.contains("2 counter drift(s)"), "{text}");
    }

    #[test]
    fn faster_is_not_a_failure() {
        let base = report(&[("p", 2_000_000)], &[]);
        let cand = report(&[("p", 1_000_000)], &[]);
        let mut out = Vec::new();
        assert!(perfdiff(&base, &cand, &PerfDiffConfig::default(), &mut out).unwrap());
        assert!(String::from_utf8(out).unwrap().contains("faster"));
    }

    /// Build a profile snapshot straight from folded text.
    fn profile(folded: &str) -> ProfileSnapshot {
        ProfileSnapshot::parse_folded(folded).unwrap()
    }

    #[test]
    fn profile_synthetic_regression_fails_the_gate() {
        // `evaluate` goes from 50% to 80% self share: a real shift.
        let base = profile("serve;accept 40\nserve;evaluate 50\nserve;write 10\n");
        let cand = profile("serve;accept 15\nserve;evaluate 80\nserve;write 5\n");
        let mut out = Vec::new();
        let pass = perfdiff_profiles(&base, &cand, &PerfDiffConfig::default(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!pass, "50%->80% self share must fail:\n{text}");
        assert!(text.contains("serve;evaluate"), "{text}");
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("50.0%"), "{text}");
        assert!(text.contains("80.0%"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
        // accept shrank — reported as faster, not a failure condition.
        assert!(text.contains("faster"), "{text}");
    }

    #[test]
    fn profile_shares_are_scale_invariant() {
        // The candidate ran 10x longer but the *shape* is identical:
        // raw counts differ by 10x, shares by 0% — must pass.
        let base = profile("a;b 50\na;c 50\n");
        let cand = profile("a;b 500\na;c 500\n");
        let mut out = Vec::new();
        assert!(perfdiff_profiles(&base, &cand, &PerfDiffConfig::default(), &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("PASS"), "{text}");
        assert!(text.contains("+0.0%"), "{text}");
    }

    #[test]
    fn profile_floor_shields_cold_frames_from_noise() {
        // A frame at 0.5% tripling to 1.4% is within sampling noise:
        // the absolute floor (1 point) keeps the relative gate quiet.
        let base = profile("hot 995\ncold 5\n");
        let cand = profile("hot 986\ncold 14\n");
        let cfg = PerfDiffConfig {
            watch: Some(vec!["cold".into(), "hot".into()]),
            ..PerfDiffConfig::default()
        };
        let mut out = Vec::new();
        assert!(perfdiff_profiles(&base, &cand, &cfg, &mut out).unwrap());
        // …but the same relative growth above the floor fails.
        let base = profile("hot 80\nwarm 20\n");
        let cand = profile("hot 55\nwarm 45\n");
        let mut out = Vec::new();
        assert!(!perfdiff_profiles(&base, &cand, &PerfDiffConfig::default(), &mut out).unwrap());
    }

    #[test]
    fn profile_explicit_watch_requires_presence_and_new_frames_are_noted() {
        let base = profile("a 100\n");
        let cand = profile("a 50\nb 50\n");
        let cfg = PerfDiffConfig {
            watch: Some(vec!["zzz".into()]),
            ..PerfDiffConfig::default()
        };
        let mut out = Vec::new();
        assert!(!perfdiff_profiles(&base, &cand, &cfg, &mut out).unwrap());
        assert!(String::from_utf8(out).unwrap().contains("MISSING"));
        // Default watch: the brand-new hot frame is reported as context.
        let mut out = Vec::new();
        assert!(perfdiff_profiles(&base, &cand, &PerfDiffConfig::default(), &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("new frame at 50.0% self"), "{text}");
    }

    #[test]
    fn profile_files_load_and_diff() {
        let dir = std::env::temp_dir();
        let base_path = dir.join(format!("bikron-pd-base-{}.folded", std::process::id()));
        let cand_path = dir.join(format!("bikron-pd-cand-{}.folded", std::process::id()));
        std::fs::write(&base_path, "serve;evaluate 90\nserve;write 10\n").unwrap();
        std::fs::write(&cand_path, "serve;evaluate 45\nserve;write 55\n").unwrap();
        let mut out = Vec::new();
        let pass = perfdiff_profile_files(
            base_path.to_str().unwrap(),
            cand_path.to_str().unwrap(),
            &PerfDiffConfig::default(),
            &mut out,
        )
        .unwrap();
        assert!(!pass, "write 10%->55% must fail");
        assert!(perfdiff_profile_files(
            "/no/such/file",
            "/none",
            &PerfDiffConfig::default(),
            &mut Vec::new()
        )
        .is_err());
        std::fs::remove_file(&base_path).ok();
        std::fs::remove_file(&cand_path).ok();
    }
}
