//! Typed fallback reasons for sharding.
//!
//! `with_shards()` falls back to fewer shards (or one) when the scenario
//! cannot be split safely; these tests pin the typed [`ShardClamp`]
//! reasons so harnesses (the swarm runner in particular) can branch on
//! *why* a shard request was refused instead of scraping logs.

use reflex_core::{ServerConfig, ShardClamp, Testbed};
use reflex_net::{MachineId, NetFaultAction, NetFaultHook, StackProfile};
use reflex_sim::SimTime;

/// A hook that never actually faults — its mere presence must keep the
/// run single-shard, because shards exchange flights on the healthy path
/// only.
struct InertNetHook;

impl NetFaultHook for InertNetHook {
    fn on_send(
        &mut self,
        _now: SimTime,
        _from: MachineId,
        _to: MachineId,
        _size: u32,
    ) -> NetFaultAction {
        NetFaultAction::Deliver
    }
}

fn testbed(clients: usize) -> Testbed {
    Testbed::builder()
        .seed(9)
        .server_threads(2)
        .client_machines(vec![StackProfile::ix_tcp(); clients])
        .build()
}

#[test]
fn shard_clamp_is_recorded() {
    // 16 shards over 2 client machines clamps to 3 (server + 2 clients).
    let tb = testbed(2).with_shards(16);
    assert_eq!(
        tb.shard_clamp(),
        Some(ShardClamp::Clamped {
            requested: 16,
            effective: 3,
        })
    );
    assert_eq!(tb.shards(), 3);
}

#[test]
fn shard_clamp_fault_hook() {
    let mut tb = testbed(2);
    tb.world_mut()
        .fabric_mut()
        .set_fault_hook(Box::new(InertNetHook));
    let tb = tb.with_shards(4);
    assert_eq!(tb.shard_clamp(), Some(ShardClamp::FaultHook));
    assert_eq!(tb.shards(), 1);
}

#[test]
fn shard_clamp_dynamic_routing() {
    let tb = Testbed::builder()
        .seed(9)
        .server(ServerConfig {
            threads: 2,
            max_threads: 4,
            auto_scale: true,
            ..ServerConfig::default()
        })
        .client_machines(vec![StackProfile::ix_tcp(); 2])
        .build()
        .with_shards(4);
    assert_eq!(tb.shard_clamp(), Some(ShardClamp::ServerDynamicRouting));
    assert_eq!(tb.shards(), 1);
}
