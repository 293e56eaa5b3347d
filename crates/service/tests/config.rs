//! The config documents: `ServiceConfig::to_json` is the `/v1/config`
//! body, and `ShardConfig::to_json` wraps it for a sharded topology.
//!
//! The golden strings pin both documents byte for byte, for the default
//! config and for one where every option differs from its default. The
//! other tests walk those documents: a misspelt key fails at every level,
//! and each row, set alone, changes only its own field.

use ft_service::config::ConfigError;
use ft_service::json::Json;
use ft_service::{
    BatchingConfig, BreakerPolicy, ChaosConfig, CorruptionKind, DistributedConfig, FaultKind,
    KernelPolicy, RetryPolicy, ServiceConfig, ShardConfig, TunerConfig,
};
use std::collections::{BTreeMap, BTreeSet};

/// A topology where each of the 55 options differs from its default,
/// chaos included, with both forced-fault lists non-empty.
fn every_option_changed() -> ShardConfig {
    ShardConfig {
        shards: 5,
        service: ServiceConfig {
            shed_after_ms: Some(25),
            plan_cache_capacity: 12,
            kernel_policy: KernelPolicy {
                schoolbook_max_bits: 3_000,
                seq_toom_max_bits: 1_000_000,
                ntt_min_bits: 9_000_000,
                seq_toom_k: 4,
                par_toom_k: 5,
                toom_threshold_bits: 20_000,
                par_depth: 3,
            },
            verify_residues: false,
            retry: RetryPolicy {
                max_retries: 5,
                backoff_base_ms: 2,
                backoff_max_ms: 32,
            },
            breaker: BreakerPolicy {
                failure_threshold: 7,
                open_ms: 125,
            },
            chaos: Some(ChaosConfig {
                seed: 42,
                panic_per_10k: 100,
                straggle_per_10k: 200,
                corrupt_per_10k: 300,
                corruption: CorruptionKind::ResidueEvading,
                straggle_ms: 3,
                max_faulty_attempts: 2,
                force: vec![(3, FaultKind::Panic), (9, FaultKind::Corrupt)],
                shard_kill_per_10k: 10,
                shard_stall_per_10k: 20,
                stall_rounds: 6,
                force_shard: vec![(1, 5, FaultKind::ShardKill), (2, 8, FaultKind::ShardStall)],
            }),
            batching: BatchingConfig {
                max_batch: 16,
                queue_capacity: 512,
            },
            tuner: TunerConfig {
                enabled: false,
                interval_ms: 250,
                min_samples: 32,
                slowdown_pct: 150,
            },
            distributed: DistributedConfig {
                enabled: true,
                k: 3,
                bfs_steps: 2,
                f: 2,
                min_group: 3,
                min_bits: 4_096,
                max_bits: 65_536,
                fault_seed: 7,
                hard_faults_per_run: 2,
                delay_ranks: 1,
                delay_factor: 8,
                faulty_attempts: 2,
                deadline_budget: 3,
                straggler_factor: 4,
                heartbeat_period: 5,
                recursion_detect: true,
            },
        },
        heartbeat_ms: 7,
        deadline_budget: 4,
        hot_watermark: 40,
        idle_watermark: 5,
        max_failovers: 6,
    }
}

/// `ServiceConfig::default().to_json()`.
const DEFAULT_SERVICE: &str = concat!(
    r#"{"batching":{"max_batch":32,"queue_capacity":1024},"#,
    r#""breaker":{"failure_threshold":5,"open_ms":250},"#,
    r#""chaos":null,"#,
    r#""distributed":{"bfs_steps":1,"deadline_budget":1,"delay_factor":4,"delay_ranks":0,"#,
    r#""enabled":false,"f":1,"fault_seed":0,"faulty_attempts":1,"hard_faults_per_run":0,"#,
    r#""heartbeat_period":1,"k":2,"max_bits":4000000,"min_bits":2048,"min_group":2,"#,
    r#""recursion_detect":false,"straggler_factor":0},"#,
    r#""kernel_policy":{"ntt_min_bits":1048577,"par_depth":2,"par_toom_k":3,"#,
    r#""schoolbook_max_bits":2048,"seq_toom_k":3,"seq_toom_max_bits":1048576,"#,
    r#""toom_threshold_bits":24576},"#,
    r#""plan_cache_capacity":8,"#,
    r#""retry":{"backoff_base_ms":1,"backoff_max_ms":64,"max_retries":3},"#,
    r#""shed_after_ms":null,"#,
    r#""tuner":{"enabled":true,"interval_ms":500,"min_samples":64,"slowdown_pct":125},"#,
    r#""verify_residues":true}"#,
);

/// `every_option_changed().service.to_json()`.
const CHANGED_SERVICE: &str = concat!(
    r#"{"batching":{"max_batch":16,"queue_capacity":512},"#,
    r#""breaker":{"failure_threshold":7,"open_ms":125},"#,
    r#""chaos":{"corrupt_per_10k":300,"corruption":"residue_evading","force":[{"index":3,"#,
    r#""kind":"panic"},{"index":9,"kind":"corrupt"}],"force_shard":[{"kind":"shard_kill","#,
    r#""round":5,"shard":1},{"kind":"shard_stall","round":8,"shard":2}],"#,
    r#""max_faulty_attempts":2,"panic_per_10k":100,"seed":42,"shard_kill_per_10k":10,"#,
    r#""shard_stall_per_10k":20,"stall_rounds":6,"straggle_ms":3,"straggle_per_10k":200},"#,
    r#""distributed":{"bfs_steps":2,"deadline_budget":3,"delay_factor":8,"delay_ranks":1,"#,
    r#""enabled":true,"f":2,"fault_seed":7,"faulty_attempts":2,"hard_faults_per_run":2,"#,
    r#""heartbeat_period":5,"k":3,"max_bits":65536,"min_bits":4096,"min_group":3,"#,
    r#""recursion_detect":true,"straggler_factor":4},"#,
    r#""kernel_policy":{"ntt_min_bits":9000000,"par_depth":3,"par_toom_k":5,"#,
    r#""schoolbook_max_bits":3000,"seq_toom_k":4,"seq_toom_max_bits":1000000,"#,
    r#""toom_threshold_bits":20000},"#,
    r#""plan_cache_capacity":12,"#,
    r#""retry":{"backoff_base_ms":2,"backoff_max_ms":32,"max_retries":5},"#,
    r#""shed_after_ms":25,"#,
    r#""tuner":{"enabled":false,"interval_ms":250,"min_samples":32,"slowdown_pct":150},"#,
    r#""verify_residues":false}"#,
);

/// `ShardConfig::to_json` of a topology with the given top-level
/// values and service document.
fn shard_document(top: [u64; 6], service: &str) -> String {
    let [budget, heartbeat, hot, idle, failovers, shards] = top;
    format!(
        concat!(
            r#"{{"deadline_budget":{},"heartbeat_ms":{},"hot_watermark":{},"#,
            r#""idle_watermark":{},"max_failovers":{},"service":{},"shards":{}}}"#
        ),
        budget, heartbeat, hot, idle, failovers, service, shards
    )
}

#[test]
fn golden_config_documents() {
    let default = ShardConfig::default();
    let changed = every_option_changed();
    assert_eq!(default.service.to_json(), DEFAULT_SERVICE);
    assert_eq!(changed.service.to_json(), CHANGED_SERVICE);
    assert_eq!(
        default.to_json(),
        shard_document([3, 20, 32, 2, 3, 3], DEFAULT_SERVICE)
    );
    assert_eq!(
        changed.to_json(),
        shard_document([4, 7, 40, 5, 6, 5], CHANGED_SERVICE)
    );
    for cfg in [default, changed] {
        assert_eq!(ShardConfig::from_json(&cfg.to_json()).unwrap(), cfg);
        let service = ServiceConfig::from_json(&cfg.service.to_json()).unwrap();
        assert_eq!(service, cfg.service);
    }
}

/// `json` with `value` at the dotted `path`, creating objects on the way.
fn with(json: &Json, path: &str, value: Json) -> Json {
    let mut map = match json {
        Json::Obj(map) => map.clone(),
        _ => BTreeMap::new(),
    };
    match path.split_once('.') {
        None => map.insert(path.to_string(), value),
        Some((key, rest)) => {
            let inner = with(map.get(key).unwrap_or(&Json::Null), rest, value);
            map.insert(key.to_string(), inner)
        }
    };
    Json::Obj(map)
}

/// Every value of `json` that is not an object, by dotted path.
fn leaves(json: &Json, path: &str, out: &mut Vec<String>) {
    match json {
        Json::Obj(map) => {
            for (key, value) in map {
                leaves(value, &join(path, key), out);
            }
        }
        _ => out.push(path.to_string()),
    }
}

/// The value at the dotted `path` of `json`.
fn at<'a>(json: &'a Json, path: &str) -> &'a Json {
    path.split('.')
        .fold(json, |node, key| node.get(key).unwrap())
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// For every key of every object in `json`, list entries included: the
/// key's full path, and a copy of `json` where that object also holds the
/// key misspelt with a trailing `x`.
fn misspellings(json: &Json, path: &str) -> Vec<(String, Json)> {
    match json {
        Json::Obj(map) => {
            let mut out = Vec::new();
            for (key, value) in map {
                let mut typo = map.clone();
                typo.insert(format!("{key}x"), value.clone());
                out.push((join(path, key), Json::Obj(typo)));
                for (inner, fixed) in misspellings(value, &join(path, key)) {
                    let mut copy = map.clone();
                    copy.insert(key.clone(), fixed);
                    out.push((inner, Json::Obj(copy)));
                }
            }
            out
        }
        Json::Arr(items) => {
            let mut out = Vec::new();
            for (i, item) in items.iter().enumerate() {
                for (inner, fixed) in misspellings(item, &format!("{path}[{i}]")) {
                    let mut copy = items.clone();
                    copy[i] = fixed;
                    out.push((inner, Json::Arr(copy)));
                }
            }
            out
        }
        _ => Vec::new(),
    }
}

fn unknown(path: &str, nearest: &str) -> ConfigError {
    ConfigError::UnknownKey {
        path: path.to_string(),
        nearest: nearest.to_string(),
    }
}

#[test]
fn misspelt_keys_fail_at_every_level() {
    let changed = every_option_changed();
    let shard_doc = Json::parse(&changed.to_json()).unwrap();
    let service_doc = Json::parse(&changed.service.to_json()).unwrap();
    let mut levels = BTreeSet::new();
    for (path, doc) in misspellings(&shard_doc, "") {
        let typo = format!("{path}x");
        assert_eq!(
            ShardConfig::from_json(&doc.dump()),
            Err(unknown(&typo, &path))
        );
        levels.insert(
            path.rsplit_once('.')
                .map_or("", |(level, _)| level)
                .to_string(),
        );
    }
    for (path, doc) in misspellings(&service_doc, "") {
        let typo = format!("{path}x");
        assert_eq!(
            ServiceConfig::from_json(&doc.dump()),
            Err(unknown(&typo, &path))
        );
    }
    // The top level, `service`, its seven sections, and both entries of
    // each forced-fault list.
    assert_eq!(levels.len(), 1 + 1 + 7 + 4, "{levels:?}");
    assert!(levels.contains("service.chaos.force_shard[1]"));

    assert_eq!(
        ServiceConfig::from_json(r#"{"batching": {"max_batches": 5}}"#),
        Err(unknown("batching.max_batches", "batching.max_batch"))
    );
    assert_eq!(
        ServiceConfig::from_json(r#"{"distributed": {"enabled": true, "F": 2}}"#),
        Err(unknown("distributed.F", "distributed.f"))
    );
    assert_eq!(
        ShardConfig::from_json(r#"{"shard": 7}"#),
        Err(unknown("shard", "shards"))
    );
    assert_eq!(
        ShardConfig::from_json(
            r#"{"service": {"chaos": {"force": [{"idx": 1, "kind": "panic"}]}}}"#
        ),
        Err(unknown(
            "service.chaos.force[0].idx",
            "service.chaos.force[0].index"
        ))
    );
    let err = ServiceConfig::from_json(r#"{"tuner": {"enable": false}}"#).unwrap_err();
    assert_eq!(
        err.to_string(),
        "unknown config key `tuner.enable` (did you mean `tuner.enabled`?)"
    );
}

#[test]
fn every_row_sets_only_its_field() {
    let changed = Json::parse(&every_option_changed().to_json()).unwrap();
    let plain = ShardConfig::default();
    let with_chaos = ShardConfig {
        service: ServiceConfig {
            chaos: Some(ChaosConfig::default()),
            ..ServiceConfig::default()
        },
        ..ShardConfig::default()
    };
    let plain_doc = Json::parse(&plain.to_json()).unwrap();
    let chaos_doc = Json::parse(&with_chaos.to_json()).unwrap();
    let mut rows = Vec::new();
    leaves(&chaos_doc, "", &mut rows);
    assert_eq!(rows.len(), 55, "{rows:?}");
    for row in rows {
        let value = at(&changed, &row).clone();
        let (base, base_doc) = if row.starts_with("service.chaos.") {
            (&with_chaos, &chaos_doc)
        } else {
            (&plain, &plain_doc)
        };
        assert_ne!(&value, at(base_doc, &row), "{row} keeps its default");
        let doc = with(&Json::Obj(BTreeMap::new()), &row, value.clone());
        let loaded = ShardConfig::from_json(&doc.dump()).unwrap_or_else(|e| panic!("{row}: {e}"));
        assert_ne!(&loaded, base, "{row}");
        assert_eq!(
            Json::parse(&loaded.to_json()).unwrap(),
            with(base_doc, &row, value),
            "{row}"
        );
    }
}
