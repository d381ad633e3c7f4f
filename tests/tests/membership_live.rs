//! Live-cluster membership drill: real daemons over loopback TCP in
//! SWIM gossip mode. Kill a provider and watch the survivors walk it
//! through suspect → confirm; the healthy majority must stay `alive`
//! throughout (no false evictions from losing one peer).
//!
//! This is the `make membership-smoke` end-to-end leg; the protocol
//! properties themselves are exercised at scale in the simulator suite
//! (`tests/tests/membership.rs`).

use std::time::{Duration, Instant};

use sorrento::swim::MembershipMode;
use sorrento_json::Json;
use sorrento_net::config::CtlConfig;
use sorrento_net::ctl;
use sorrento_net::testkit::LoopbackCluster;
use sorrento_sim::NodeId;

const DEADLINE: Duration = Duration::from_secs(60);

/// Parse a `members` reply and return the reported state of `node`
/// (`None` if the member is not in the view at all).
fn state_of(json: &str, node: NodeId) -> Option<String> {
    let v = Json::parse(json).expect("members reply parses");
    for m in v.get("members").and_then(Json::as_arr)? {
        if m.get("node").and_then(Json::as_u64) == Some(node.index() as u64) {
            return m.get("state").and_then(Json::as_str).map(str::to_owned);
        }
    }
    None
}

/// Poll `observer`'s view of `victim` until `pred` holds, failing after
/// the deadline with the last view seen.
fn wait_for_state(
    cfg: &CtlConfig,
    observer: NodeId,
    victim: NodeId,
    pred: impl Fn(Option<&str>) -> bool,
    what: &str,
) -> String {
    let start = Instant::now();
    let mut last = String::from("(no reply yet)");
    while start.elapsed() < DEADLINE {
        if let Ok(json) = ctl::fetch_members(cfg, observer, Duration::from_secs(5)) {
            let st = state_of(&json, victim);
            if pred(st.as_deref()) {
                return json;
            }
            last = format!("victim state {st:?}");
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    panic!("timed out waiting for {what}; last: {last}");
}

#[test]
fn live_suspect_confirm_drill() {
    // One namespace daemon plus three providers, all in SWIM mode.
    let mut cluster = LoopbackCluster::builder(3)
        .each_daemon(|_, cfg| cfg.membership = MembershipMode::Swim)
        .boot()
        .expect("boot the swim cluster");
    let ctl_cfg = cluster.ctl();
    let observer = NodeId::from_index(1);
    let victim = NodeId::from_index(3);

    // Gossip must first converge: the observer's view shows the victim
    // alive (seeds start alive, so also wait for a real payload-carrying
    // table entry via the members report being complete).
    wait_for_state(&ctl_cfg, observer, victim, |s| s == Some("alive"), "initial convergence");

    // Kill the last provider without ceremony.
    cluster.kill(victim.index()).expect("kill provider");

    // The survivor must walk the victim to dead (a fast poll can catch
    // the intermediate `suspect`, but timing may skip past it — only
    // the verdict is asserted).
    let json = wait_for_state(
        &ctl_cfg,
        observer,
        victim,
        |s| s == Some("dead"),
        "suspect→confirm of the killed provider",
    );

    // No collateral damage: every other member is still alive.
    let v = Json::parse(&json).unwrap();
    for m in v.get("members").and_then(Json::as_arr).unwrap() {
        let node = m.get("node").and_then(Json::as_u64).unwrap();
        let state = m.get("state").and_then(Json::as_str).unwrap();
        if node != victim.index() as u64 {
            assert_eq!(state, "alive", "live node n{node} was {state}");
        }
    }

    cluster.shutdown().expect("clean shutdown");
}
