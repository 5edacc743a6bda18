//! The one result type of the harness and its views.
//!
//! A [`Figure`] holds every replication's [`SimReport`] at each (series, x)
//! point and names its metrics once, in the [`Panel`]s that show them: a
//! panel reduces a point's replications to one cell at print time.
//! [`print_figure`] and [`markdown`] are two views of the same figure;
//! [`print_table`] is the row-per-series layout of the single-x tables
//! (ablations, scalability, the correlated outage).

use std::rc::Rc;

use tetrisched_sim::{Metrics, SimReport};

/// A label as the two views spell it: `text` in the aligned tables, `md`
/// in the Markdown report (whose spellings `EXPERIMENTS.md` embeds).
#[derive(Debug, Clone, Copy)]
pub struct Label {
    /// Spelling in [`print_figure`] and `print_table`.
    pub text: &'static str,
    /// Spelling in [`markdown`].
    pub md: &'static str,
}

impl From<&'static str> for Label {
    fn from(s: &'static str) -> Label {
        Label { text: s, md: s }
    }
}

/// One panel of a figure: a per-run metric, named once here, and how a
/// point's replications reduce to the cell it shows.
#[derive(Debug, Clone, Copy)]
pub struct Panel {
    /// Panel heading (column heading in `print_table`).
    pub name: Label,
    /// The metric of one run.
    pub metric: fn(&Metrics) -> f64,
    /// Show the maximum over replications instead of the mean.
    pub max: bool,
}

/// A panel showing the mean of `metric` over replications. Counts are
/// averaged like everything else, so at two replications a count cell may
/// read `x.5`.
pub(crate) fn panel(name: impl Into<Label>, metric: fn(&Metrics) -> f64) -> Panel {
    Panel {
        name: name.into(),
        metric,
        max: false,
    }
}

impl Panel {
    /// The cell for one point's replications.
    fn cell(&self, replications: &[SimReport]) -> f64 {
        let values = replications.iter().map(|r| (self.metric)(&r.metrics));
        if self.max {
            values.fold(0.0, f64::max)
        } else {
            values.sum::<f64>() / replications.len() as f64
        }
    }
}

/// One experiment point: a series at one x-axis value, with the report of
/// every replication (seed, seed + 1, ...).
#[derive(Debug)]
pub struct Point {
    /// Series name (a scheduler or a configuration).
    pub series: String,
    /// X-axis value (estimate error %, plan-ahead seconds, MTBF ...).
    pub x: f64,
    /// One finished run per replication.
    pub replications: Vec<SimReport>,
}

/// A figure: points on a series-by-x grid and the panels that read them.
#[derive(Debug)]
pub struct Figure {
    /// Heading of the text view and first half of the Markdown one.
    pub title: String,
    /// What the figure shows; the Markdown heading appends it.
    pub caption: &'static str,
    /// X-axis label.
    pub x_label: Label,
    /// The grid, shared when two figures read the same runs.
    pub points: Rc<[Point]>,
    /// One block (text) or table (Markdown) per panel.
    pub panels: Vec<Panel>,
}

impl Figure {
    /// Series names and x values in first-appearance order.
    fn axes(&self) -> (Vec<&str>, Vec<f64>) {
        let (mut series, mut xs) = (Vec::new(), Vec::new());
        for p in self.points.iter() {
            if !series.contains(&p.series.as_str()) {
                series.push(p.series.as_str());
            }
            if !xs.contains(&p.x) {
                xs.push(p.x);
            }
        }
        (series, xs)
    }

    /// The cell of `panel` at (`series`, `x`), if the grid has that point.
    fn cell(&self, panel: &Panel, series: &str, x: f64) -> Option<f64> {
        let point = self.points.iter().find(|p| p.series == series && p.x == x);
        point.map(|p| panel.cell(&p.replications))
    }
}

/// Prints a figure as aligned per-series rows, one block per panel — the
/// same layout as the paper's figure panels.
pub fn print_figure(fig: &Figure) {
    println!("== {} ==", fig.title);
    let (series, xs) = fig.axes();
    for panel in &fig.panels {
        println!("-- {} --", panel.name.text);
        print!("{:<16}", fig.x_label.text);
        for x in &xs {
            print!("{x:>10.1}");
        }
        println!();
        for s in &series {
            print!("{s:<16}");
            for &x in &xs {
                match fig.cell(panel, s, x) {
                    Some(v) => print!("{v:>10.1}"),
                    None => print!("{:>10}", "-"),
                }
            }
            println!();
        }
    }
    println!();
}

/// Renders a figure as Markdown: a heading, then one table per panel.
pub fn markdown(fig: &Figure) -> String {
    let (series, xs) = fig.axes();
    let mut out = format!("### {}: {}\n\n", fig.title, fig.caption);
    for panel in &fig.panels {
        out.push_str(&format!("**{}**\n\n| {} |", panel.name.md, fig.x_label.md));
        for x in &xs {
            out.push_str(&format!(" {x} |"));
        }
        out.push_str(&format!("\n|---|{}\n", "---|".repeat(xs.len())));
        for s in &series {
            out.push_str(&format!("| {s} |"));
            for &x in &xs {
                match fig.cell(panel, s, x) {
                    Some(v) => out.push_str(&format!(" {v:.1} |")),
                    None => out.push_str(" - |"),
                }
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Prints a single-x figure as one row per series and one column per
/// panel; `columns` gives each panel's width and decimals.
pub(crate) fn print_table(
    fig: &Figure,
    label: &str,
    label_width: usize,
    columns: &[(usize, usize)],
) {
    print!("{label:<label_width$}");
    for (panel, &(width, _)) in fig.panels.iter().zip(columns) {
        print!("{:>width$}", panel.name.text);
    }
    println!();
    for p in fig.points.iter() {
        print!("{:<label_width$}", p.series);
        for (panel, &(width, decimals)) in fig.panels.iter().zip(columns) {
            print!("{:>width$.decimals$}", panel.cell(&p.replications));
        }
        println!();
    }
}

/// The four standard panels of the estimate-error figures (Figs. 6–11).
pub(crate) fn slo_panels() -> Vec<Panel> {
    let accepted = Label {
        text: "SLO attainment, accepted (with reservation) (%)",
        md: "SLO attainment, accepted (%)",
    };
    vec![
        panel(
            "SLO attainment, all SLO jobs (%)",
            Metrics::total_slo_attainment,
        ),
        panel(accepted, Metrics::accepted_slo_attainment),
        panel(
            "SLO attainment, w/o reservation (%)",
            Metrics::nores_slo_attainment,
        ),
        panel("Best-effort mean latency (s)", Metrics::be_mean_latency),
    ]
}

/// The latency panels of Fig. 12(a)/(b).
pub(crate) fn latency_panels() -> Vec<Panel> {
    vec![
        panel("solver latency mean (ms)", |m| {
            m.solver_latency.mean() * 1e3
        }),
        panel("solver latency p99 (ms)", |m| {
            m.solver_latency.quantile(0.99) * 1e3
        }),
        panel("cycle latency mean (ms)", |m| m.cycle_latency.mean() * 1e3),
        panel("cycle latency p99 (ms)", |m| {
            m.cycle_latency.quantile(0.99) * 1e3
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_spec, RunSpec, SchedulerKind};
    use tetrisched_cluster::Cluster;
    use tetrisched_workloads::Workload;

    fn point(series: &str, x: f64, seeds: &[u64]) -> Point {
        let run = |&seed| {
            let cluster = Cluster::uniform(2, 4, 1);
            run_spec(&RunSpec::new(
                Workload::GsMix,
                cluster,
                4,
                seed,
                SchedulerKind::RayonCs,
            ))
        };
        Point {
            series: series.into(),
            x,
            replications: seeds.iter().map(run).collect(),
        }
    }

    #[test]
    fn both_views_render_a_sparse_grid_from_the_same_cells() {
        let fig = Figure {
            title: "T".into(),
            caption: "sparse",
            x_label: Label {
                text: "x: long",
                md: "x",
            },
            points: vec![
                point("a", 0.0, &[1, 2]),
                point("a", 1.0, &[1]),
                point("b", 0.0, &[1]),
            ]
            .into(),
            panels: vec![
                panel("jobs", |m| m.jobs_admitted as f64),
                slo_panels().remove(1),
            ],
        };
        print_figure(&fig);
        print_table(&fig, "series", 8, &[(6, 0), (8, 1)]);
        let md = markdown(&fig);
        assert!(md.starts_with("### T: sparse\n\n**jobs**\n\n| x | 0 | 1 |\n|---|---|---|\n"));
        assert!(md.contains("| a | 4.0 | 4.0 |\n| b | 4.0 | - |\n\n"));
        assert!(md.contains("**SLO attainment, accepted (%)**"));

        let busy = panel("busy", |m| m.busy_node_seconds as f64);
        let two = &fig.points[0].replications;
        let (a, b) = (
            (busy.metric)(&two[0].metrics),
            (busy.metric)(&two[1].metrics),
        );
        assert_eq!(busy.cell(two), (a + b) / 2.0);
        assert_eq!(Panel { max: true, ..busy }.cell(two), a.max(b));
    }
}
