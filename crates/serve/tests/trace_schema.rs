//! Every trace record the engine and the query layer emit parses as one
//! versioned JSON object with the required keys and no duplicate key.
//!
//! The trace sink is process-global, so this suite lives in its own test
//! binary and installs the sink exactly once.

use omnet_core::{AllPairsProfiles, ProfileOptions};
use omnet_serve::wire::{parse_json, Json};
use omnet_serve::{Engine, Query};
use omnet_temporal::TraceBuilder;
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// A writer appending every byte to a shared buffer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_trace_record_is_a_versioned_object_with_unique_keys() {
    let trace = TraceBuilder::new()
        .num_nodes(5)
        .internal(4)
        .contact_secs(0, 1, 0.0, 120.0)
        .contact_secs(1, 2, 100.0, 260.0)
        .contact_secs(2, 3, 400.0, 520.0)
        .contact_secs(0, 3, 800.0, 920.0)
        .contact_secs(3, 4, 450.0, 470.0)
        .build();
    let buf = SharedBuf::default();
    omnet_obs::install_writer(Box::new(buf.clone()));

    let opts = ProfileOptions::default();
    let profiles = AllPairsProfiles::compute(&trace, opts);
    assert_eq!(profiles.num_nodes(), 5);
    let engine = Engine::from_trace(Arc::new(trace), opts, "toy");
    let queries: Vec<Query> = ["delivery 0 3 50", "path 0 3 0", "diameter 0.01 6", "stats"]
        .iter()
        .map(|l| Query::parse_line(l).unwrap().unwrap())
        .collect();
    for answer in engine.answer_batch(&queries) {
        answer.expect("every query answers");
    }
    omnet_obs::flush_counters();
    omnet_obs::shutdown();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("records are UTF-8");
    let mut kinds = BTreeSet::new();
    for line in text.lines() {
        let Json::Obj(fields) = parse_json(line.as_bytes()).expect("record parses") else {
            panic!("record is not an object: {line}");
        };
        let mut keys = BTreeSet::new();
        for (k, _) in &fields {
            assert!(keys.insert(k.as_str()), "duplicate key `{k}` in {line}");
        }
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(get("v"), Some(&Json::Num("1".into())), "version in {line}");
        assert_eq!(fields[0].0, "v", "`v` leads {line}");
        let Some(Json::Str(kind)) = get("kind") else {
            panic!("kind is not a string in {line}");
        };
        assert!(
            ["span", "event", "counter"].contains(&kind.as_str()),
            "unknown kind `{kind}` in {line}"
        );
        kinds.insert(kind.clone());
        assert!(matches!(get("name"), Some(Json::Str(_))), "name in {line}");
        assert!(
            matches!(get("elapsed"), Some(Json::Num(_))),
            "elapsed in {line}"
        );
    }
    assert_eq!(
        kinds,
        ["counter", "event", "span"].map(String::from).into(),
        "every record kind appears"
    );
}
