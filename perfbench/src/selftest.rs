//! `--self-test`: a short run of each workload, checking that
//!
//! * every end-to-end metric is printed, with the unit `BENCHMARK.json`
//!   gives it, and the outputs are correct;
//! * a deliberately corrupted reference is counted as failed;
//! * the traced run prints exactly the per-layer metrics of the layer
//!   table below, which `BENCHMARK.json` must list too.

use std::collections::BTreeSet;

use crate::layers::{query_labels, OPERATOR_NAMES};
use crate::workload::Workload;
use crate::{run, Args, Outcome, END_TO_END};

/// Small enough that the whole self-test takes well under a minute.
const SELF_TEST_SF: f64 = 0.02;
const SELF_TEST_SECONDS: f64 = 1.0;

/// The per-layer metric names, layer by layer.
pub fn layer_table() -> Vec<String> {
    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|i| i.to_string()).collect()
    }
    let labels = query_labels();
    let per_query = |prefix: &str, suffix: &str| -> Vec<String> {
        labels.iter().map(|q| format!("{prefix}{q}{suffix}")).collect()
    };
    let kernels =
        ["select", "fetch", "join_build", "join_probe", "grouped_agg", "scalar_agg", "calc"];
    let layers: Vec<(&str, Vec<String>)> = vec![
        ("columnar", strs(&["generate_s", "catalog_bytes"])),
        ("operators", kernels.iter().map(|k| format!("{k}.ns_per_row")).collect()),
        ("interpreter", OPERATOR_NAMES.iter().map(|op| format!("{op}.ms")).collect()),
        ("interpreter", strs(&["pass_ms"])),
        ("executor", per_query("", ".wall_ms")),
        (
            "executor",
            strs(&["critical_path_ms", "overhead_ms", "queue_wait_ms", "worker_busy_ms", "cpu_ms"]),
        ),
        ("scheduler", strs(&["tasks", "local_ratio", "steals"])),
        ("pipeline", strs(&["morsels", "fused_steps", "groupagg_fused"])),
        (
            "sharing",
            strs(&[
                "morsels_shared",
                "morsels_private",
                "partials_reused",
                "partials_stored",
                "shared_ratio",
            ]),
        ),
        (
            "service",
            strs(&[
                "result_hit_ratio",
                "plan_hit_ratio",
                "hit_us.p50",
                "miss_ms.p50",
                "overhead_ms",
                "shed",
                "timed_out",
                "results_invalidated",
            ]),
        ),
        ("core", strs(&["converge_s", "converge_exec_s", "optimizer_ms"])),
        ("core", per_query("runs.", "")),
        ("core", strs(&["mutations.basic", "mutations.medium", "mutations.advanced"])),
        ("core", strs(&["best_plan_nodes", "converged_by_balance"])),
        ("core", per_query("speedup_vs_serial.", "")),
        ("core", per_query("ap_over_hp.", "")),
        ("trace", strs(&["overhead_pct", "spans"])),
    ];
    layers
        .into_iter()
        .flat_map(|(layer, items)| items.into_iter().map(move |i| format!("{layer}.{i}")))
        .collect()
}

/// `(name, unit)` of every object in the array under `"key"` of the
/// benchmark file (a flat scan: entries hold no nested arrays).
fn listed(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let body = &json[start..];
    let (Some(open), Some(close)) = (body.find('['), body.find(']')) else {
        return Vec::new();
    };
    let field = |obj: &str, name: &str| {
        let rest = &obj[obj.find(&format!("\"{name}\""))? + name.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body[open + 1..close]
        .split('}')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit"))))
        .collect()
}

fn check(ok: bool, what: String, problems: &mut Vec<String>) {
    println!("{} {what}", if ok { "ok  " } else { "FAIL" });
    if !ok {
        problems.push(what);
    }
}

fn names(outcome: &Outcome) -> BTreeSet<String> {
    outcome.metrics.0.iter().map(|(n, _, _)| n.clone()).collect()
}

/// Runs the self-test; returns the process exit code.
pub fn run_self_test() -> i32 {
    let mut problems = Vec::new();
    let json = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    check(!json.is_empty(), "BENCHMARK.json is readable".into(), &mut problems);
    let end_to_end = listed(&json, "end_to_end");
    let per_layer = listed(&json, "per_layer");
    let table: BTreeSet<String> = layer_table().into_iter().collect();

    let workloads: Vec<String> = listed(&json, "workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    check(workloads == ours, format!("BENCHMARK.json workloads {workloads:?}"), &mut problems);
    let expected: Vec<(String, Option<String>)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect();
    check(
        end_to_end == expected,
        "BENCHMARK.json end_to_end = printed metrics".into(),
        &mut problems,
    );
    let listed_layers: BTreeSet<String> = per_layer.iter().map(|(n, _)| n.clone()).collect();
    check(
        listed_layers == table && per_layer.len() == table.len(),
        "BENCHMARK.json per_layer = layer table".into(),
        &mut problems,
    );

    for workload in Workload::ALL {
        let name = workload.name();
        let base = Args {
            workload,
            seed: 1,
            seconds: SELF_TEST_SECONDS,
            trace: false,
            sf: SELF_TEST_SF,
            corrupt_reference: false,
        };
        let plain = run(&base);
        let printed: Vec<(String, Option<String>)> =
            plain.metrics.0.iter().map(|(n, _, u)| (n.clone(), Some(u.to_string()))).collect();
        check(printed == expected, format!("{name}: end-to-end metrics with units"), &mut problems);
        check(plain.failed == 0, format!("{name}: outputs match the reference"), &mut problems);
        check(
            plain.result_json().starts_with("{\"correct\": true"),
            format!("{name}: result line reports correct"),
            &mut problems,
        );

        let traced = run(&Args { trace: true, ..base.clone() });
        check(
            names(&traced) == table,
            format!("{name}: traced names = layer table"),
            &mut problems,
        );
        let units_match =
            traced.metrics.0.iter().all(|(n, _, u)| {
                per_layer.iter().any(|(ln, lu)| ln == n && lu.as_deref() == Some(*u))
            });
        check(units_match, format!("{name}: per-layer units as listed"), &mut problems);

        let corrupted = run(&Args { corrupt_reference: true, ..base });
        check(
            corrupted.failed > 0 && corrupted.result_json().starts_with("{\"correct\": false"),
            format!("{name}: corrupted reference counted ({} failed)", corrupted.failed),
            &mut problems,
        );
    }
    if problems.is_empty() {
        println!("self-test passed");
        0
    } else {
        println!("self-test failed: {} problem(s)", problems.len());
        1
    }
}
