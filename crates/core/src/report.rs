//! Result rendering: the text tables printed by the harness binaries and
//! the HTML page of the original's `finalResult/index.html` (result type
//! `rh`, appendix A.5).

use provgraph::{datalog, diff, dot, PropertyGraph};

use crate::pipeline::{BenchmarkRun, CellOutcome};
use crate::suite::{Expectation, ExpectedCell};
use crate::tool::ToolKind;

/// One rendered cell of the results matrix.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// `ok` / `empty` as measured.
    pub measured: String,
    /// What the paper's Table 2 expects.
    pub expected: ExpectedCell,
    /// Whether measurement and expectation agree on ok/empty.
    pub agrees: bool,
}

/// Marker appended to a matrix cell whose measurement disagrees with
/// the paper's expectation.
const MISMATCH_MARK: &str = "  << MISMATCH";

/// One fixed-width matrix table row — the framing shared by every
/// matrix renderer, so the layouts cannot drift apart.
fn matrix_table_row(group: &dyn std::fmt::Display, syscall: &str, cells: [&str; 3]) -> String {
    format!(
        "{:<5} {:<10} | {:<22} | {:<22} | {:<22}\n",
        group, syscall, cells[0], cells[1], cells[2]
    )
}

/// The shared matrix table header (column labels + separator rule).
fn matrix_table_header() -> String {
    let mut out = matrix_table_row(&"Group", "syscall", ["SPADE", "OPUS", "CamFlow"]);
    out.push_str(&"-".repeat(92));
    out.push('\n');
    out
}

/// Render the Table 2 matrix as fixed-width text.
///
/// `rows` pairs each expectation with the measured cell strings in tool
/// order (SPADE, OPUS, CamFlow).
pub fn render_table2(rows: &[(Expectation, [CellResult; 3])]) -> String {
    let mut out = matrix_table_header();
    for (exp, cells) in rows {
        let fmt_cell = |c: &CellResult| {
            let mark = if c.agrees { "" } else { MISMATCH_MARK };
            format!("{}{}", c.measured, mark)
        };
        let rendered = [
            fmt_cell(&cells[0]),
            fmt_cell(&cells[1]),
            fmt_cell(&cells[2]),
        ];
        out.push_str(&matrix_table_row(
            &exp.group,
            exp.syscall,
            [&rendered[0], &rendered[1], &rendered[2]],
        ));
    }
    out
}

/// Render the full matrix report from summarized cells — the canonical
/// output of a matrix run, shared by the single-process and elastic
/// paths.
///
/// Deterministic by construction: cells carry only seeded-pipeline
/// outcomes (status, matching cost, discarded trials, result size — no
/// timings), and rows arrive in canonical Table 2 order from
/// [`crate::pipeline::run_matrix`] / [`crate::pipeline::merge_matrix_cells`].
/// An elastic run's merged report is therefore **byte-identical** to the
/// single-process report, which is exactly what the elastic drive smoke
/// asserts.
pub fn render_matrix_report(rows: &[(Expectation, [CellOutcome; 3])]) -> String {
    let mut out = matrix_table_header();
    let mut agreeing = 0usize;
    for (exp, cells) in rows {
        let fmt_cell = |cell: &CellOutcome, expected: ExpectedCell| {
            let agrees = cell.completed() && cell.is_ok() == expected.is_ok();
            let mut text = cell.status.clone();
            if let Some(cost) = cell.matching_cost {
                text.push_str(&format!(" c{cost}"));
            }
            if let Some(d) = cell.discarded_trials.filter(|&d| d > 0) {
                text.push_str(&format!(" d{d}"));
            }
            if !agrees {
                text.push_str(MISMATCH_MARK);
            }
            (text, agrees)
        };
        let rendered: Vec<(String, bool)> = [exp.spade, exp.opus, exp.camflow]
            .into_iter()
            .zip(cells)
            .map(|(expected, cell)| fmt_cell(cell, expected))
            .collect();
        agreeing += rendered.iter().filter(|(_, a)| *a).count();
        out.push_str(&matrix_table_row(
            &exp.group,
            exp.syscall,
            [&rendered[0].0, &rendered[1].0, &rendered[2].0],
        ));
    }
    out.push_str(&format!(
        "\nagreement with paper Table 2: {agreeing}/{} cells\n",
        rows.len() * 3
    ));
    out
}

/// Render a benchmark result graph in a short human-readable form:
/// node and edge census with labels, dummies marked.
pub fn describe_result(graph: &PropertyGraph) -> String {
    let mut out = String::new();
    let dummies = graph
        .nodes()
        .filter(|n| diff::is_dummy(graph, &n.id))
        .count();
    out.push_str(&format!(
        "{} nodes ({} dummy), {} edges\n",
        graph.node_count(),
        dummies,
        graph.edge_count()
    ));
    for n in graph.nodes() {
        let dummy = if diff::is_dummy(graph, &n.id) {
            " [dummy]"
        } else {
            ""
        };
        out.push_str(&format!("  node {} : {}{}\n", n.id, n.label, dummy));
    }
    for e in graph.edges() {
        let op = e
            .props
            .get("op")
            .or_else(|| e.props.get("cf:type"))
            .map(|v| format!(" ({v})"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  edge {} : {} -[{}{}]-> {}\n",
            e.id, e.src, e.label, op, e.tgt
        ));
    }
    out
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Generate the HTML results page (`finalResult/index.html` analogue):
/// per benchmark, the verdict, the result graph as DOT and as Datalog,
/// and the generalized foreground/background graphs.
pub fn render_html(tool: ToolKind, runs: &[BenchmarkRun]) -> String {
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n");
    out.push_str(&format!(
        "<title>ProvMark results: {}</title>\n",
        tool.name()
    ));
    out.push_str(
        "<style>body{font-family:sans-serif} pre{background:#f4f4f4;padding:8px}\n\
         .ok{color:green}.empty{color:#888}</style></head><body>\n",
    );
    out.push_str(&format!(
        "<h1>ProvMark benchmark results — {} ({})</h1>\n",
        tool.name(),
        tool.format()
    ));
    out.push_str("<ul>\n");
    for run in runs {
        out.push_str(&format!(
            "<li><a href=\"#{0}\">{0}</a> — <span class=\"{1}\">{1}</span></li>\n",
            html_escape(&run.name),
            run.status.render()
        ));
    }
    out.push_str("</ul>\n");
    for run in runs {
        out.push_str(&format!(
            "<h2 id=\"{0}\">{0} — <span class=\"{1}\">{1}</span></h2>\n",
            html_escape(&run.name),
            run.status.render()
        ));
        out.push_str(&format!(
            "<p>result: {} nodes, {} edges; discarded trials: {}</p>\n",
            run.result.node_count(),
            run.result.edge_count(),
            run.discarded_trials
        ));
        out.push_str("<h3>Benchmark result (DOT)</h3>\n<pre>");
        out.push_str(&html_escape(&dot::to_dot(&run.result, "benchmark")));
        out.push_str("</pre>\n<h3>Benchmark result (Datalog)</h3>\n<pre>");
        out.push_str(&html_escape(&datalog::to_canonical_datalog(
            &run.result,
            "res",
        )));
        out.push_str("</pre>\n<h3>Generalized foreground</h3>\n<pre>");
        out.push_str(&html_escape(&datalog::to_canonical_datalog(
            &run.generalized_fg,
            "fg",
        )));
        out.push_str("</pre>\n<h3>Generalized background</h3>\n<pre>");
        out.push_str(&html_escape(&datalog::to_canonical_datalog(
            &run.generalized_bg,
            "bg",
        )));
        out.push_str("</pre>\n");
    }
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{BenchStatus, StageTimings};
    use crate::suite::{self, EmptyNote};

    fn toy_run(name: &str, ok: bool) -> BenchmarkRun {
        let mut result = PropertyGraph::new();
        if ok {
            result.add_node("t", "Artifact").unwrap();
        }
        BenchmarkRun {
            name: name.to_owned(),
            status: if ok {
                BenchStatus::Ok
            } else {
                BenchStatus::Empty
            },
            result,
            generalized_bg: PropertyGraph::new(),
            generalized_fg: PropertyGraph::new(),
            timings: StageTimings::default(),
            discarded_trials: 0,
            matching_cost: 0,
        }
    }

    #[test]
    fn table2_renders_with_mismatch_markers() {
        let exp = suite::table2()[0];
        let cell_ok = CellResult {
            measured: "ok".into(),
            expected: ExpectedCell::Ok,
            agrees: true,
        };
        let cell_bad = CellResult {
            measured: "empty (LP)".into(),
            expected: ExpectedCell::Ok,
            agrees: false,
        };
        let text = render_table2(&[(exp, [cell_ok.clone(), cell_bad, cell_ok])]);
        assert!(text.contains("close"));
        assert!(text.contains("MISMATCH"));
        assert!(text.contains("SPADE"));
    }

    #[test]
    fn describe_marks_dummies() {
        let mut g = PropertyGraph::new();
        g.add_node("p", "Process").unwrap();
        g.set_node_property("p", provgraph::DUMMY_PROP, "true")
            .unwrap();
        g.add_node("a", "Artifact").unwrap();
        g.add_edge("e", "p", "a", "Used").unwrap();
        g.set_edge_property("e", "op", "creat").unwrap();
        let text = describe_result(&g);
        assert!(text.contains("2 nodes (1 dummy), 1 edges"));
        assert!(text.contains("[dummy]"));
        assert!(text.contains("(creat)"));
    }

    #[test]
    fn html_contains_all_sections_and_escapes() {
        let runs = vec![toy_run("creat", true), toy_run("exit", false)];
        let html = render_html(ToolKind::Spade, &runs);
        assert!(html.contains("<h2 id=\"creat\">"));
        assert!(html.contains("class=\"empty\""));
        assert!(html.contains("Generalized background"));
        assert!(!html.contains("<digraph"), "DOT must be escaped");
        assert!(html.contains("digraph benchmark"));
    }

    #[test]
    fn matrix_report_renders_outcomes_and_agreement() {
        let exp = suite::table2()[1]; // creat: ok everywhere
        let ok = CellOutcome {
            status: "ok".into(),
            matching_cost: Some(2),
            discarded_trials: Some(1),
            result_size: Some(5),
        };
        let empty = CellOutcome {
            status: "empty".into(),
            matching_cost: Some(0),
            discarded_trials: Some(0),
            result_size: Some(0),
        };
        let errored = CellOutcome {
            status: "error: benchmark `creat` failed".into(),
            matching_cost: None,
            discarded_trials: None,
            result_size: None,
        };
        let text = render_matrix_report(&[(exp, [ok, empty, errored])]);
        assert!(text.contains("creat"));
        assert!(text.contains("ok c2 d1"), "{text}");
        assert!(text.contains("empty c0  << MISMATCH"));
        assert!(text.contains("error:"));
        assert!(text.contains("agreement with paper Table 2: 1/3 cells"));
    }

    #[test]
    fn lost_cells_render_as_visible_mismatches() {
        // A cell abandoned by the elastic runner (retries exhausted)
        // renders its `lost:` status with the mismatch marker and never
        // counts toward agreement — a degraded report is visibly
        // degraded.
        let exp = suite::table2()[1]; // creat: ok everywhere
        let ok = CellOutcome {
            status: "ok".into(),
            matching_cost: Some(2),
            discarded_trials: Some(0),
            result_size: Some(5),
        };
        let lost = crate::pipeline::CellFailure {
            syscall: "creat".into(),
            tool: 1,
            attempts: 3,
            detail: "heartbeat went stale".into(),
        }
        .lost_outcome();
        let text = render_matrix_report(&[(exp, [ok.clone(), lost, ok])]);
        assert!(
            text.contains("lost: no worker completed this cell in 3 attempt(s)"),
            "{text}"
        );
        let lost_line = text.lines().find(|l| l.contains("lost:")).unwrap();
        assert!(lost_line.contains("MISMATCH"), "{lost_line}");
        assert!(text.contains("agreement with paper Table 2: 2/3 cells"));
    }

    #[test]
    fn empty_note_codes() {
        assert_eq!(EmptyNote::NR.code(), "NR");
        assert_eq!(EmptyNote::DV.code(), "DV");
    }
}
