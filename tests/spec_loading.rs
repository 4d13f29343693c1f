//! How an experiment spec loads: which JSON is accepted, and what the
//! error names when it is not.

use hetsched::json::{self, Json, Value};
use hetsched::prelude::*;

fn spec() -> Experiment {
    Experiment::new(
        "spec",
        ClusterConfig::paper_default(&[1.0, 2.0]),
        PolicySpec::orr(),
    )
}

/// `spec()` as JSON with `edit` applied to its `cluster` object.
fn edited(edit: impl FnOnce(&mut json::Map)) -> String {
    let mut v = spec().to_json();
    edit(
        v.as_object_mut().unwrap()["cluster"]
            .as_object_mut()
            .unwrap(),
    );
    json::to_string(&v)
}

fn load_error(text: &str) -> String {
    match json::from_str::<Experiment>(text) {
        Err(HetschedError::Serialization(msg)) => msg,
        other => panic!("expected a serialization error, got {other:?}"),
    }
}

#[test]
fn a_spec_with_an_unknown_key_still_loads() {
    let text = edited(|cluster| {
        cluster.insert("event_list", Value::String("calendar".into()));
    });
    assert_eq!(json::from_str::<Experiment>(&text).unwrap(), spec());
}

#[test]
fn an_unknown_variant_is_a_typed_error_naming_it() {
    let text = edited(|cluster| {
        cluster["discipline"] = json::from_str(r#"{"kind": "ps_reference"}"#).unwrap();
    });
    let msg = load_error(&text);
    assert!(msg.contains("`cluster.discipline.kind`"), "{msg}");
    assert!(msg.contains("unknown variant `ps_reference`"), "{msg}");
}

#[test]
fn a_missing_required_field_is_named() {
    let text = edited(|cluster| {
        cluster.remove("track_ratio_histogram");
    });
    assert_eq!(
        load_error(&text),
        "`cluster.track_ratio_histogram`: missing"
    );
}

/// Every ```json fragment of the README that shows a config section
/// (`faults`, `dispatch`, `channels`, `fleet`) loads when merged into a
/// paper-default config, so the documentation cannot drift from the
/// codec.
#[test]
fn readme_config_fragments_load() {
    let readme = include_str!("../README.md");
    let mut seen = Vec::new();
    for block in readme.split("```json").skip(1) {
        let body = block.split("```").next().unwrap().trim();
        // A bare `"key": {...}` member becomes a one-member object.
        let text = if body.starts_with('"') {
            format!("{{{body}}}")
        } else {
            body.to_string()
        };
        let Ok(Value::Object(fragment)) = json::from_str::<Value>(&text) else {
            continue; // the JSONL sample with its `...` ellipsis
        };
        let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0]).to_json();
        for (key, value) in fragment.iter() {
            seen.push(key.to_string());
            cfg.as_object_mut().unwrap().insert(key, value.clone());
        }
        let mut loaded = ClusterConfig::from_json(&cfg)
            .unwrap_or_else(|e| panic!("README fragment {body} does not load: {e}"));
        loaded.normalize_fleet();
        loaded
            .validate()
            .unwrap_or_else(|e| panic!("README fragment {body} is invalid: {e}"));
    }
    seen.sort();
    assert_eq!(seen, ["channels", "dispatch", "faults", "fleet"]);
}

/// `RunStats` archived while the kernel counters still carried the
/// calendar queue's `resizes` (always 0) load unchanged: the retired
/// member is ignored.
#[test]
fn run_stats_with_the_retired_resizes_counter_still_load() {
    let mut cfg = ClusterConfig::paper_default(&[1.0, 2.0]);
    cfg.horizon = 2_000.0;
    cfg.warmup = 0.0;
    cfg.obs = Some(ObsSpec::every(500.0));
    let stats = Experiment::new("obs", cfg, PolicySpec::orr())
        .run_single(0)
        .unwrap();
    let mut v = stats.to_json();
    let kernel = v.as_object_mut().unwrap()["obs"].as_object_mut().unwrap()["kernel"]
        .as_object_mut()
        .unwrap();
    assert!(kernel.get("resizes").is_none());
    kernel.push("resizes", Value::Number("0".into()));
    let text = json::to_string(&v);
    assert!(text.contains(r#""high_water":"#) && text.contains(r#","resizes":0}"#));
    assert_eq!(json::from_str::<RunStats>(&text).unwrap(), stats);
}
