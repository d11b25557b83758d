//! Wiring a [`FaultPlan`] into a live [`Testbed`].

use std::sync::Arc;

use reflex_core::{ReflexServer, Testbed, World};
use reflex_sim::SimDuration;

use crate::hooks::{PlannedDeviceHook, PlannedNetHook};
use crate::plan::{FaultKind, FaultPlan};
use crate::stats::FaultStats;

/// Installs `plan` into `tb`: arms the device and fabric fault hooks for
/// the windowed faults and schedules the discrete ones (link flaps,
/// thread stalls, server deaths) as engine events. Returns the shared
/// counter handle.
///
/// Installing [`FaultPlan::none`] (or any empty plan) arms nothing — the
/// run is byte-identical to one without fault injection.
///
/// A [`FaultKind::ServerDeath`] kills one site of a multi-site
/// (replicated) testbed whole: its device aborts every queued and future
/// command, its links go dark for the rest of the run (messages in
/// either direction are black-holed at send time, so they never count as
/// submitted work), and the coordinator fails over one detection delay
/// later. Device, thread and link-flap faults target site 0.
///
/// # Panics
///
/// Panics if a [`FaultKind::LinkFlap`] names a client index outside
/// `tb.world().client_count()`; if a [`FaultKind::ServerDeath`] names a
/// site outside the testbed or is installed on a one-site testbed (kill
/// its device with [`FaultKind::DeviceDeath`] instead); or on a
/// multi-site testbed that is already sharded (fault campaigns are
/// single-shard). A [`FaultKind::ThreadStall`] naming an inactive thread
/// panics later, when the event fires.
pub fn install(plan: &FaultPlan, tb: &mut Testbed<ReflexServer>) -> Arc<FaultStats> {
    let stats = Arc::new(FaultStats::default());
    let n_sites = tb.world().site_count();
    if n_sites > 1 {
        assert_eq!(
            tb.shards(),
            1,
            "fault campaigns are single-shard: install before with_shards"
        );
    }
    // One device hook per site; every device-scoped fault but a server
    // death lands on site 0.
    let mut dev: Vec<PlannedDeviceHook> = (0..n_sites)
        .map(|_| PlannedDeviceHook::new(Arc::clone(&stats)))
        .collect();
    let mut net = PlannedNetHook::new(Arc::clone(&stats));
    for ev in &plan.events {
        let seed = plan.stream_seed(ev.id);
        match ev.kind {
            FaultKind::TransientDeviceErrors { rate, duration } => {
                dev[0].add_transient(ev.at, duration, rate, seed);
            }
            FaultKind::GcStorm { extra, duration } => {
                dev[0].add_gc_storm(ev.at, duration, extra);
            }
            FaultKind::DeviceDeath => dev[0].set_death(ev.at),
            FaultKind::PacketLoss { rate, duration } => {
                net.add_loss(ev.at, duration, rate, seed);
            }
            FaultKind::PacketDup { rate, duration } => {
                net.add_dup(ev.at, duration, rate, seed);
            }
            FaultKind::LatencyStorm { extra, duration } => {
                net.add_storm(ev.at, duration, extra);
            }
            FaultKind::LinkFlap { client, down_for } => {
                assert!(
                    client < tb.world().client_count(),
                    "LinkFlap names client {client} but the testbed has {}",
                    tb.world().client_count()
                );
                let machine = tb.world().client_machine(client);
                // Packets already in flight or sent during the outage are
                // black-holed by the fabric hook...
                net.add_link_down(ev.at, down_for, machine);
                stats.add_downtime(down_for);
                // ...and the server tears the client's connections down,
                // re-registering them when the link returns.
                let s = Arc::clone(&stats);
                tb.schedule_at(ev.at, move |w: &mut World<ReflexServer>, _ctx| {
                    FaultStats::bump(&s.link_downs);
                    let torn = w.server_mut().on_link_down(machine) as u64;
                    s.conns_torn_down
                        .fetch_add(torn, std::sync::atomic::Ordering::Relaxed);
                });
                let s = Arc::clone(&stats);
                tb.schedule_at(
                    ev.at + down_for,
                    move |w: &mut World<ReflexServer>, _ctx| {
                        let rebound = w.server_mut().rebind_client(machine) as u64;
                        s.conns_rebound
                            .fetch_add(rebound, std::sync::atomic::Ordering::Relaxed);
                    },
                );
            }
            FaultKind::ThreadStall { thread, stall } => {
                stats.add_downtime(stall);
                let s = Arc::clone(&stats);
                tb.schedule_at(ev.at, move |w: &mut World<ReflexServer>, ctx| {
                    FaultStats::bump(&s.thread_stalls);
                    let now = ctx.now();
                    w.server_mut().thread_mut(thread).inject_stall(now, stall);
                });
            }
            FaultKind::ServerDeath { server } => {
                assert!(
                    n_sites > 1,
                    "ServerDeath kills one site of a multi-site testbed, but this testbed \
                     has a single server; use DeviceDeath to kill its device"
                );
                assert!(
                    server < n_sites,
                    "ServerDeath names site {server} but the testbed has {n_sites}"
                );
                dev[server].set_death(ev.at);
                let machine = tb.world().site_machine(server);
                net.add_link_down(ev.at, SimDuration::from_secs_f64(3600.0), machine);
                let detect = tb.schedule_server_death(server, ev.at);
                stats.add_downtime(detect);
            }
        }
    }
    for (site, hook) in dev.into_iter().enumerate() {
        if hook.is_armed() {
            tb.world_mut()
                .site_device_mut(site)
                .set_fault_hook(Box::new(hook));
        }
    }
    if net.is_armed() {
        tb.world_mut().fabric_mut().set_fault_hook(Box::new(net));
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use reflex_sim::SimTime;

    #[test]
    fn empty_plan_installs_nothing() {
        let mut tb = Testbed::builder().server_threads(1).build();
        let stats = install(&FaultPlan::none(), &mut tb);
        assert!(tb.world_mut().device_mut().clear_fault_hook().is_none());
        assert!(tb.world_mut().fabric_mut().clear_fault_hook().is_none());
        assert_eq!(stats.snapshot().injected(), 0);
    }

    #[test]
    fn windowed_faults_arm_the_hooks() {
        let mut tb = Testbed::builder().server_threads(1).build();
        let plan = FaultPlan::seeded(1)
            .with_event(
                SimTime::ZERO + SimDuration::from_millis(1),
                FaultKind::TransientDeviceErrors {
                    rate: 0.5,
                    duration: SimDuration::from_millis(2),
                },
            )
            .with_event(
                SimTime::ZERO + SimDuration::from_millis(1),
                FaultKind::PacketLoss {
                    rate: 0.1,
                    duration: SimDuration::from_millis(2),
                },
            );
        let _stats = install(&plan, &mut tb);
        assert!(tb.world_mut().device_mut().clear_fault_hook().is_some());
        assert!(tb.world_mut().fabric_mut().clear_fault_hook().is_some());
    }

    #[test]
    #[should_panic(expected = "LinkFlap names client")]
    fn link_flap_bounds_checked_at_install() {
        let mut tb = Testbed::builder().server_threads(1).build();
        let plan = FaultPlan::seeded(1).with_event(
            SimTime::ZERO,
            FaultKind::LinkFlap {
                client: 99,
                down_for: SimDuration::from_millis(1),
            },
        );
        let _ = install(&plan, &mut tb);
    }

    fn replicated(sites: usize) -> Testbed<ReflexServer> {
        Testbed::builder().build_replicated(sites, sites.min(3), SimDuration::from_millis(30), 1e9)
    }

    #[test]
    fn server_death_arms_the_victim_site_only() {
        let mut tb = replicated(3);
        let telemetry = tb.enable_telemetry();
        let plan = FaultPlan::seeded(1).with_event(
            SimTime::ZERO + SimDuration::from_millis(1),
            FaultKind::ServerDeath { server: 1 },
        );
        let stats = install(&plan, &mut tb);
        assert_eq!(stats.snapshot().downtime, SimDuration::from_millis(30));
        tb.run(SimDuration::from_millis(5));
        let deaths = telemetry.snapshot().expect("enabled").counters["replication.server_deaths"];
        assert_eq!(deaths, 1);
        let world = tb.world_mut();
        assert!(world.site_device_mut(1).clear_fault_hook().is_some());
        assert!(world.site_device_mut(0).clear_fault_hook().is_none());
        assert!(world.site_device_mut(2).clear_fault_hook().is_none());
        assert!(world.fabric_mut().clear_fault_hook().is_some());
    }

    #[test]
    #[should_panic(expected = "has a single server")]
    fn server_death_on_a_single_site_testbed_panics() {
        let mut tb = Testbed::builder().server_threads(1).build();
        let plan =
            FaultPlan::seeded(1).with_event(SimTime::ZERO, FaultKind::ServerDeath { server: 0 });
        let _ = install(&plan, &mut tb);
    }

    #[test]
    #[should_panic(expected = "names site 7 but the testbed has 3")]
    fn server_death_bounds_checked_at_install() {
        let mut tb = replicated(3);
        let plan =
            FaultPlan::seeded(1).with_event(SimTime::ZERO, FaultKind::ServerDeath { server: 7 });
        let _ = install(&plan, &mut tb);
    }
}
