//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Sec. 6–7).
//!
//! An experiment is a row of [`EXPERIMENTS`]: an id, the paper artifact it
//! regenerates, the flags it takes, and a function that reruns the
//! pipeline — workload generation, reservation admission, full simulation
//! under each scheduler stack — and returns [`Figure`]s. The
//! `tetrisched-bench` binary parses its arguments once ([`parse`]) and
//! prints one row; `report` renders the `fig*` rows as Markdown. A
//! [`FigScale`] selects between paper-sized and smoke-sized (`--smoke`,
//! CI, tests) runs.
//!
//! Absolute numbers are not expected to match a 2016 physical testbed; the
//! *shapes* are the reproduction target (see `EXPERIMENTS.md`): who wins,
//! by roughly what factor, and where the crossovers fall.

#![deny(unsafe_code)]

mod churn;
mod figures;
pub mod harness;
mod scenario;
mod table;

pub use churn::chaos_gate;
pub use figures::FigScale;
pub use harness::{run_spec, RunSpec, SchedulerKind};
pub use scenario::{open_loop, OPEN_LOOP_ARRIVALS};
pub use table::{markdown, print_figure, Figure, Label, Panel, Point};

use figures::{error_sweep, ERROR_SWEEPS};

/// Parsed command line of one experiment.
#[derive(Debug, Clone)]
pub struct Args {
    /// Sizing, after `--smoke`, `--jobs` and `--seed`.
    pub scale: FigScale,
    /// The value-less flags given, each one of the experiment's `flags`.
    switches: Vec<&'static str>,
}

impl Args {
    /// Whether the value-less `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// One experiment: a row of the registry.
pub struct Experiment {
    /// Subcommand name.
    pub id: &'static str,
    /// The paper artifact (or extension) it regenerates.
    pub artifact: &'static str,
    /// Every flag it takes; anything else is rejected.
    pub flags: &'static [&'static str],
    /// Reruns the pipeline.
    pub run: fn(&Args) -> Vec<Figure>,
    /// The text view of what `run` returned. `table1` has no figures and
    /// `report` runs one row at a time to drop its runs before the next, so
    /// those two do all their work here.
    pub print: fn(&Args, &[Figure]),
}

const SCALE: &[&str] = &["--smoke", "--jobs", "--seed"];

fn print_figures(_: &Args, figures: &[Figure]) {
    figures.iter().for_each(print_figure);
}

/// The registry row of `ERROR_SWEEPS[I]` (a const parameter, because a `fn`
/// pointer cannot capture an index).
const fn sweep_row<const I: usize>() -> Experiment {
    Experiment {
        id: ERROR_SWEEPS[I].id,
        artifact: ERROR_SWEEPS[I].artifact,
        flags: SCALE,
        run: |a| vec![error_sweep(&a.scale, &ERROR_SWEEPS[I])],
        print: print_figures,
    }
}

/// The registry, in the order the index lists it.
pub static EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        id: "table1",
        artifact: "Tables 1-2 and the Fig. 5 value-function constants",
        flags: &[],
        run: |_| Vec::new(),
        print: |_, _| figures::print_tables(),
    },
    sweep_row::<0>(),
    sweep_row::<1>(),
    sweep_row::<2>(),
    sweep_row::<3>(),
    sweep_row::<4>(),
    Experiment {
        id: "fig11",
        artifact: "Fig. 11: SLO attainment and best-effort latency vs plan-ahead",
        flags: SCALE,
        run: |a| vec![figures::fig11(&a.scale)],
        print: print_figures,
    },
    Experiment {
        id: "fig12",
        artifact: "Fig. 12: solver and cycle latency vs plan-ahead, and their quantiles",
        flags: SCALE,
        run: |a| figures::fig12(&a.scale),
        print: print_figures,
    },
    Experiment {
        id: "report",
        artifact: "Table 1 and Figs. 6-12 as the Markdown of EXPERIMENTS.md",
        flags: SCALE,
        run: |_| Vec::new(),
        print: |a, _| figures::report(a),
    },
    Experiment {
        id: "ablations",
        artifact: "design-choice ablations beyond Table 2 (warm start, batch cap, tie-break, ...)",
        flags: SCALE,
        run: |a| vec![figures::ablations(&a.scale)],
        print: |_, f| figures::print_ablations(f),
    },
    Experiment {
        id: "scalability",
        artifact: "Sec. 7.3: latency as the cluster grows to 1000 (--xl: 10000) nodes",
        flags: &["--xl"],
        run: |a| vec![figures::scalability(a)],
        print: |_, f| figures::print_scalability(f),
    },
    Experiment {
        id: "churn",
        artifact: "beyond the paper: MTBF sweep, slow nodes, stragglers; --check is the chaos gate",
        flags: &[
            "--smoke",
            "--jobs",
            "--seed",
            "--perf-faults",
            "--stragglers",
            "--check",
        ],
        run: churn::figures,
        print: churn::print,
    },
];

/// The value after `flag`, parsed.
fn value<'a, T: std::str::FromStr>(
    rest: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    let raw = rest.next().ok_or(format!("`{flag}` needs a value"))?;
    raw.parse()
        .map_err(|_| format!("`{flag} {raw}`: not a number"))
}

/// Parses `<id> [flags]` (the process arguments after the program name).
/// Unknown ids, flags the experiment does not take, missing and malformed
/// values are errors: nothing is dropped or defaulted silently.
pub fn parse(argv: &[String]) -> Result<(&'static Experiment, Args), String> {
    let (id, rest) = argv.split_first().ok_or("no experiment id")?;
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .ok_or(format!("unknown experiment `{id}`"))?;
    // `--smoke` picks the scale wherever it sits; `--jobs` / `--seed` edit it.
    let mut scale = if rest.iter().any(|arg| arg == "--smoke") {
        FigScale::smoke()
    } else {
        FigScale::paper()
    };
    let mut switches = Vec::new();
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        match experiment.flags.iter().find(|f| *f == arg) {
            Some(&"--jobs") => scale.num_jobs = value(&mut rest, arg)?,
            Some(&"--seed") => scale.seed = value(&mut rest, arg)?,
            Some(&flag) => switches.push(flag),
            None => return Err(format!("`{id}` takes no `{arg}`")),
        }
    }
    Ok((experiment, Args { scale, switches }))
}

/// The index: every experiment, the flags it takes and what it regenerates.
pub fn index() -> String {
    let mut out = String::from("usage: tetrisched-bench <id> [flags]    (--jobs N, --seed S)\n\n");
    for e in &EXPERIMENTS {
        let flags = e.flags.join(" ");
        out.push_str(&format!("  {:<13}{flags:<57}{}\n", e.id, e.artifact));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parser_rejects_what_it_does_not_know() {
        for bad in [
            "",
            "fig13",
            "fig6 --jobs abc",
            "fig6 --jobs",
            "fig6 --job 8",
            "fig6 --seed -1",
            "churn --xl",
            "scalability --smoke",
            "table1 --smoke",
        ] {
            assert!(parse(&argv(bad)).is_err(), "`{bad}` parsed");
        }
        let (experiment, args) =
            parse(&argv("churn --jobs 8 --check --smoke --seed 7")).expect("valid");
        assert_eq!(experiment.id, "churn");
        assert_eq!((args.scale.num_jobs, args.scale.seed), (8, 7));
        assert!(
            !args.scale.full_clusters,
            "--smoke applies wherever it sits"
        );
        assert!(args.has("--check") && !args.has("--stragglers"));
        let (_, paper) = parse(&argv("fig6")).expect("valid");
        assert_eq!((paper.scale.num_jobs, paper.scale.replications), (80, 2));
        assert!(index().contains("--smoke --jobs --seed --perf-faults --stragglers --check"));
    }

    /// Every experiment with a smoke scale runs and returns the series it
    /// claims on a full grid (`report` is the `fig*` rows again; `churn
    /// --check` is CI's chaos job).
    #[test]
    fn every_smoke_scale_experiment_returns_its_series() {
        let smoke = |e: &&Experiment| e.flags.contains(&"--smoke") && e.id != "report";
        for experiment in EXPERIMENTS.iter().filter(smoke) {
            let (figures, series): (usize, &[&str]) = match experiment.id {
                "fig6" | "fig7" | "fig8" => (1, &["tetrisched", "rayon-cs"]),
                "fig9" => (1, &["tetrisched", "tetrisched-nh", "rayon-cs"]),
                "fig10" | "fig11" => (1, &["tetrisched", "tetrisched-ng", "rayon-cs"]),
                "fig12" => (2, &["tetrisched", "tetrisched-ng"]),
                "ablations" => (1, &["no warm start", "batch cap 4", "3 start options"]),
                "churn" => (3, &["tetrisched", "tetrisched-ng", "rayon-cs"]),
                id => panic!("`{id}` has a smoke scale and no case here"),
            };
            // `churn` with both defenses on, so its degraded panels run too.
            let defenses = match experiment.id {
                "churn" => " --perf-faults --stragglers",
                _ => "",
            };
            let line = format!("{} --smoke --jobs 8{defenses}", experiment.id);
            let (_, args) = parse(&argv(&line)).expect("valid");
            let out = (experiment.run)(&args);
            assert_eq!(out.len(), figures, "{line}");
            for figure in &out {
                let at = |s: &str| figure.points.iter().filter(|p| p.series == s).count();
                let xs = at(series[0]);
                assert!(xs > 0 && !figure.panels.is_empty(), "{}", figure.title);
                for s in series {
                    assert_eq!(at(s), xs, "`{s}` in {}", figure.title);
                }
            }
            (experiment.print)(&args, &out);
        }
    }
}
