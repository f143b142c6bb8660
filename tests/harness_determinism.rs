//! Golden tests for the repro harness determinism contract and the CLI.
//!
//! * one quick grid over [`GOLDEN`] must produce byte-identical console
//!   output, CSVs, JSON row files and BENCH files at `--jobs 1` and
//!   `--jobs 8`, with every experiment `ok` (every verdict passed);
//!   the grid runs once per job count, and each per-experiment test
//!   checks its own experiment's rows of those shared runs;
//! * an ignored release-mode test widens the byte-identity check to
//!   every deterministic experiment in the registry;
//! * `repro --list` must cover the whole registry;
//! * unknown experiment names must exit with status 2.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

use quartz_bench::harness::{run_experiments, RunOptions};
use quartz_bench::manifest::{Manifest, RunStatus};
use quartz_bench::registry;

/// The experiments the golden runs cover, each with the BENCH files it
/// must emit. A quick run of the whole registry under the unoptimized
/// test build takes well over a minute per job count, so the registry
/// as a whole is checked by the ignored
/// `whole_registry_is_byte_identical_at_any_jobs_count`, run in release.
/// `memsim_throughput` is host-timed: only its BENCH file is compared,
/// modulo [`strip_timing_fields`].
const GOLDEN: &[(&str, &[&str])] = &[
    ("ablation_pcommit", &[]),
    ("asymmetry_ablation", &["BENCH_asymmetry.json"]),
    ("crash_sweep", &[]),
    ("fault_matrix", &[]),
    ("failure_modes", &[]),
    ("memsim_throughput", &["BENCH_memsim.json"]),
    ("overload_matrix", &["BENCH_overload.json"]),
    ("lockfree_sweep", &["BENCH_lockfree.json"]),
];

/// What one quick `run_experiments` call left behind.
struct GoldenRun {
    /// The console output.
    console: String,
    /// Every file in the output directory except `manifest.json`,
    /// which records wall times and the job count by design.
    files: BTreeMap<String, Vec<u8>>,
    manifest: Manifest,
    manifest_json: String,
}

/// Runs the named experiments in one quick `run_experiments` call at
/// the given job count.
fn golden_run(names: &[&str], jobs: usize, dir: &Path) -> GoldenRun {
    let _ = std::fs::remove_dir_all(dir);
    let selection: Vec<_> = names
        .iter()
        .map(|n| registry::find(n).expect("registered"))
        .collect();
    let opts = RunOptions {
        quick: true,
        out_dir: dir.to_path_buf(),
        jobs,
        ..RunOptions::default()
    };
    let mut buf = Vec::new();
    let manifest = run_experiments(&selection, &opts, &mut buf).unwrap();
    let mut files: BTreeMap<String, Vec<u8>> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    let manifest_json = String::from_utf8(files.remove("manifest.json").expect("manifest"))
        .expect("UTF-8 manifest");
    GoldenRun {
        console: String::from_utf8(buf).unwrap(),
        files,
        manifest,
        manifest_json,
    }
}

/// The console output of each experiment: from its `=== name — ref ===`
/// header up to its `[name took …]` line. The took-lines, the run
/// summary and the manifest path carry wall times and are left out.
fn console_sections(console: &str) -> BTreeMap<String, String> {
    let mut sections = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in console.lines() {
        if let Some(header) = line.strip_prefix("=== ") {
            let name = header.split(' ').next().unwrap().to_string();
            current = Some((name, String::new()));
        } else if line.starts_with('[') {
            if let Some((name, body)) = current.take() {
                sections.insert(name, body);
            }
        } else if let Some((_, body)) = current.as_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    sections
}

/// The quick grid over [`GOLDEN`] at `--jobs 1` and `--jobs 8`: run
/// once per test binary and shared by every golden test below.
fn golden() -> &'static (GoldenRun, GoldenRun) {
    static RUNS: OnceLock<(GoldenRun, GoldenRun)> = OnceLock::new();
    RUNS.get_or_init(|| {
        let names: Vec<&str> = GOLDEN.iter().map(|(n, _)| *n).collect();
        let base = std::env::temp_dir().join("quartz_bench_golden");
        // The two job counts run side by side: the serial run alone
        // would leave a core idle.
        std::thread::scope(|s| {
            let j1 = s.spawn(|| golden_run(&names, 1, &base.join("j1")));
            let j8 = golden_run(&names, 8, &base.join("j8"));
            (j1.join().expect("--jobs 1 run"), j8)
        })
    })
}

/// Checks one experiment of the shared golden runs: `ok` at both job
/// counts (every verdict passed, each of `verdicts` among them), the
/// BENCH files it indexes, and its console section and files identical
/// at both job counts — byte for byte when it is deterministic, modulo
/// [`strip_timing_fields`] in its BENCH files when it is host-timed.
fn check_golden_row(name: &str, verdicts: &[&str]) {
    let (j1, j8) = golden();
    let benches = GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, b)| *b)
        .expect("in GOLDEN");
    let record = |run: &'static GoldenRun| {
        run.manifest
            .experiments
            .iter()
            .find(|e| e.name == name)
            .expect("in the manifest")
    };
    let (console1, console8) = (console_sections(&j1.console), console_sections(&j8.console));
    for (run, console, jobs) in [(j1, &console1, 1), (j8, &console8, 8)] {
        let rec = record(run);
        // `ok` means the experiment ran and every verdict passed.
        assert_eq!(rec.status, RunStatus::Ok, "{name} at --jobs {jobs}");
        assert!(rec.wall_ms > 0.0, "{name} at --jobs {jobs}");
        assert_eq!(rec.benches, benches, "{name} at --jobs {jobs}");
        for verdict in verdicts {
            let line = format!("verdict {verdict}: pass");
            assert!(console[name].contains(&line), "{name}: {line}");
        }
        let row = &run.files[&format!("{name}.json")];
        assert!(row.starts_with(format!("{{\"experiment\":\"{name}\"").as_bytes()));
        for bench in benches {
            let header = format!("{{\"schema\":1,\"bench\":\"{name}\"");
            assert!(run.files[*bench].starts_with(header.as_bytes()), "{bench}");
        }
    }

    let rec = record(j1);
    let text = |run: &GoldenRun, file: &str| String::from_utf8(run.files[file].clone()).unwrap();
    if rec.deterministic {
        assert_eq!(console1[name], console8[name], "{name} console");
        let mut owned: Vec<String> = rec.tables.iter().map(|t| format!("{t}.csv")).collect();
        owned.push(format!("{name}.json"));
        for file in owned.iter().chain(&rec.benches) {
            assert_eq!(j1.files[file], j8.files[file], "{file} differs");
        }
        for bench in &rec.benches {
            let bench_text = text(j1, bench);
            assert_eq!(
                strip_timing_fields(&bench_text),
                bench_text,
                "{bench} is host-timed"
            );
        }
    } else {
        // Host-timed: only the BENCH file's non-timing fields (access
        // counts, configs, trace events, the equivalence flag) must not
        // depend on --jobs.
        for bench in &rec.benches {
            assert_eq!(
                strip_timing_fields(&text(j1, bench)),
                strip_timing_fields(&text(j8, bench)),
                "{bench} non-timing fields"
            );
        }
    }
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let names: Vec<&str> = GOLDEN.iter().map(|(n, _)| *n).collect();
    let (j1, j8) = golden();
    for (run, jobs) in [(j1, 1), (j8, 8)] {
        let m = &run.manifest;
        assert!(run.manifest_json.starts_with("{\"schema\":1,"));
        assert_eq!(m.jobs, jobs);
        let ran: Vec<&str> = m.experiments.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(ran, names);
        assert!(m.experiments.iter().any(|e| !e.points.is_empty()));
        // The manifest indexes exactly the BENCH files emitted.
        let mut indexed: Vec<&String> = m.experiments.iter().flat_map(|e| &e.benches).collect();
        indexed.sort();
        let emitted: Vec<&String> = run
            .files
            .keys()
            .filter(|f| f.starts_with("BENCH_"))
            .collect();
        assert_eq!(emitted, indexed);
    }
    assert_eq!(
        j1.files.keys().collect::<Vec<_>>(),
        j8.files.keys().collect::<Vec<_>>()
    );
    for name in names {
        check_golden_row(name, &[]);
    }
}

#[test]
fn crash_sweep_is_byte_identical_at_any_jobs_count() {
    let exp = registry::find("crash_sweep").expect("registered");
    assert!(
        exp.deterministic(),
        "crash_sweep must advertise determinism"
    );
    check_golden_row(
        "crash_sweep",
        &["no_false_positives", "no_false_negatives", "coverage"],
    );
}

#[test]
fn fault_matrix_is_byte_identical_at_any_jobs_count() {
    let exp = registry::find("fault_matrix").expect("registered");
    assert!(
        exp.deterministic(),
        "fault_matrix must advertise determinism"
    );
    check_golden_row(
        "fault_matrix",
        &["within_bounds", "no_silent_classes", "degradation_exported"],
    );
}

#[test]
fn failure_modes_is_byte_identical_and_classifies_all_modes() {
    let exp = registry::find("failure_modes").expect("registered");
    assert!(
        exp.deterministic(),
        "failure_modes must advertise determinism"
    );
    check_golden_row("failure_modes", &["classified", "diagnosed"]);
}

#[test]
fn overload_matrix_bench_file_is_byte_identical_at_any_jobs_count() {
    let exp = registry::find("overload_matrix").expect("registered");
    assert!(
        exp.deterministic(),
        "overload_matrix must advertise determinism"
    );
    check_golden_row(
        "overload_matrix",
        &[
            "conservation",
            "service_axis",
            "service_curves",
            "fault_bounds",
        ],
    );
}

#[test]
fn lockfree_sweep_is_byte_identical_at_any_jobs_count() {
    let exp = registry::find("lockfree_sweep").expect("registered");
    assert!(
        exp.deterministic(),
        "lockfree_sweep must advertise determinism"
    );
    check_golden_row(
        "lockfree_sweep",
        &["no_false_positives", "no_false_negatives"],
    );
}

#[test]
fn asymmetry_ablation_is_byte_identical_at_any_jobs_count() {
    let exp = registry::find("asymmetry_ablation").expect("registered");
    assert!(
        exp.deterministic(),
        "asymmetry_ablation must advertise determinism"
    );
    check_golden_row(
        "asymmetry_ablation",
        &["read_only_control", "write_heavy_gap"],
    );
}

#[test]
fn memsim_throughput_bench_file_is_deterministic_modulo_timing() {
    let exp = registry::find("memsim_throughput").expect("registered");
    assert!(!exp.deterministic(), "host-timed experiments opt out");
    check_golden_row(
        "memsim_throughput",
        &["l1_fast_path", "replay_equivalent", "replay_speedup"],
    );
}

/// The determinism contract over the whole registry, not just
/// [`GOLDEN`]: every `deterministic()` experiment's row file and BENCH
/// files are byte-identical at `--jobs 1` and `--jobs 2`. A quick run of
/// every experiment takes about half a minute per job count in a release
/// build and many minutes in a debug one, so the test is ignored by
/// default; CI runs it with
/// `cargo test --offline --release --test harness_determinism -- --ignored`.
#[test]
#[ignore = "runs the whole registry twice; run in release with --ignored"]
fn whole_registry_is_byte_identical_at_any_jobs_count() {
    let names: Vec<&str> = registry::all().iter().map(|e| e.name()).collect();
    let base = std::env::temp_dir().join("quartz_bench_golden_registry");
    let (j1, j2) = std::thread::scope(|s| {
        let j1 = s.spawn(|| golden_run(&names, 1, &base.join("j1")));
        let j2 = golden_run(&names, 2, &base.join("j2"));
        (j1.join().expect("--jobs 1 run"), j2)
    });
    let mut compared = 0;
    for exp in registry::all().iter().filter(|e| e.deterministic()) {
        let name = exp.name();
        let record = |run: &GoldenRun| {
            let rec = run.manifest.experiments.iter().find(|e| e.name == name);
            rec.expect("in the manifest").clone()
        };
        let (rec1, rec2) = (record(&j1), record(&j2));
        assert_eq!(rec1.status, RunStatus::Ok, "{name} at --jobs 1");
        assert_eq!(rec2.status, RunStatus::Ok, "{name} at --jobs 2");
        assert_eq!(rec1.benches, rec2.benches, "{name} BENCH files");
        for file in std::iter::once(format!("{name}.json")).chain(rec1.benches) {
            assert!(
                j1.files[&file] == j2.files[&file],
                "{file} differs between --jobs 1 and --jobs 2"
            );
        }
        compared += 1;
    }
    assert!(compared > GOLDEN.len(), "compared {compared} experiments");
}

#[test]
fn repeated_serial_runs_are_byte_identical() {
    let base = std::env::temp_dir().join("quartz_bench_golden_repeat");
    let a = golden_run(&["ablation_pcommit"], 1, &base.join("a"));
    let b = golden_run(&["ablation_pcommit"], 1, &base.join("b"));
    assert_eq!(console_sections(&a.console), console_sections(&b.console));
    assert_eq!(a.files, b.files);
}

#[test]
fn cli_list_covers_the_whole_registry() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for exp in registry::all() {
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(exp.name())),
            "--list is missing {}",
            exp.name()
        );
    }
    assert_eq!(stdout.lines().count(), registry::all().len());
}

#[test]
fn cli_unknown_experiment_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig99")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fig99"));
}

#[test]
fn cli_bad_jobs_value_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--jobs", "many", "table1"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_inject_fail_exits_1_and_marks_exactly_one_failed() {
    // The quarantine contract, end to end: an injected failure must not
    // stop the healthy experiment, must be recorded in the manifest as
    // `status: failed`, and must flip the process exit status to 1.
    let dir = std::env::temp_dir().join("quartz_bench_inject_fail");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick",
            "--jobs",
            "2",
            "--out",
            dir.to_str().unwrap(),
            "--inject-fail",
            "failure_modes",
            "failure_modes",
            "ablation_pcommit",
        ])
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a quarantined experiment must make repro exit 1: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("failure_modes QUARANTINED"), "{stdout}");
    assert!(stdout.contains("quarantined: failure_modes"), "{stdout}");

    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
    assert_eq!(
        manifest.matches("\"status\":\"failed\"").count(),
        1,
        "exactly the injected experiment fails: {manifest}"
    );
    assert_eq!(
        manifest.matches("\"status\":\"ok\"").count(),
        1,
        "the healthy experiment stays ok: {manifest}"
    );
    assert!(
        manifest.contains("injected failure (--inject-fail)"),
        "{manifest}"
    );
    // Quarantined experiments save no result rows; healthy ones do.
    assert!(!dir.join("failure_modes.json").exists());
    assert!(dir.join("ablation_pcommit.json").exists());
}

#[test]
fn cli_inject_fail_unselected_name_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--inject-fail", "fig8", "table1"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fig8"), "{stderr}");
}

/// Blanks the value after every host-timing key in a `BENCH_*.json`
/// document, leaving the deterministic fields (access counts, config
/// lists, trace event counts, the equivalence flag) for comparison.
fn strip_timing_fields(json: &str) -> String {
    const KEYS: [&str; 5] = [
        "\"wall_ms\":",
        "\"accesses_per_sec\":",
        "\"live_ms\":",
        "\"replay_ms\":",
        "\"speedup\":",
    ];
    let mut out = String::new();
    let mut rest = json;
    'outer: while !rest.is_empty() {
        for k in KEYS {
            if rest.starts_with(k) {
                out.push_str(k);
                out.push('_');
                rest = &rest[k.len()..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                rest = &rest[end..];
                continue 'outer;
            }
        }
        let mut chars = rest.chars();
        out.push(chars.next().unwrap());
        rest = chars.as_str();
    }
    out
}

#[test]
fn cli_filter_splits_commas_before_selection() {
    // --inject-fail validates its name against the selected set before
    // running anything, so it doubles as a cheap probe of what a
    // comma-separated --filter actually chose.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick",
            "--filter",
            "ablation_pcommit,failure",
            "--inject-fail",
            "table1",
        ])
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(2),
        "'table1' must not be selected by --filter ablation_pcommit,failure"
    );
    // The probe passes once the second comma term matches it (the
    // injected failure quarantines failure_modes before it runs, so the
    // run stays cheap and exits 1, not 2).
    let dir = std::env::temp_dir().join("quartz_bench_filter_probe");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick",
            "--jobs",
            "2",
            "--out",
            dir.to_str().unwrap(),
            "--filter",
            "ablation_pcommit,failure",
            "--inject-fail",
            "failure_modes",
        ])
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(1),
        "'failure_modes' must be selected by the second filter term: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ablation_pcommit"), "{stdout}");
    assert!(stdout.contains("failure_modes QUARANTINED"), "{stdout}");
}
