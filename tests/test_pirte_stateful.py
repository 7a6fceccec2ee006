"""Stateful property test: the PIRTE under random life-cycle operations.

A hypothesis rule-based machine drives install / uninstall / start /
stop / deliver / dispatch in random interleavings and checks the
invariants that must hold in every reachable state:

* memory conservation (pool usage == live plug-in footprints),
* port-id registry consistency (every registered id belongs to exactly
  one installed plug-in),
* life-cycle legality (acks always report OK or a typed failure),
* no unbounded backlog growth past the queue caps.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.autosar import INT16, SystemDescription, build_system
from repro.core import (
    AckStatus,
    MessageType,
    PluginSwcSpec,
    ServicePort,
    get_pirte,
)
from repro.core.plugin import PluginState
from repro.core.plugin_swc import make_plugin_swc_type
from repro.sim import MS
from tests.helpers import FORWARD_SOURCE, link_virtual, make_install


class PirteMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        spec = PluginSwcSpec(
            "StatefulHost",
            services=[
                ServicePort("VIN_", "svc_in", "in", INT16),
                ServicePort("VOUT", "svc_out", "out", INT16),
            ],
            vm_memory_blocks=64,
        )
        desc = SystemDescription("stateful")
        desc.add_ecu("ecu1")
        desc.add_component("host", make_plugin_swc_type(spec), "ecu1")
        self.system = build_system(desc)
        self.system.boot_all()
        self.system.sim.run_for(5 * MS)
        self.pirte = get_pirte(self.system.instance("host"))
        self.next_id = 0
        self.next_name = 0
        self.model: dict[str, set[int]] = {}  # name -> port ids

    @rule(n_ports=st.integers(1, 3))
    def install(self, n_ports):
        name = f"p{self.next_name}"
        self.next_name += 1
        ports = [
            (f"port{k}", self.next_id + k) for k in range(n_ports)
        ]
        links = [link_virtual(ports[-1][1], "VOUT")]
        message = make_install(
            name, "ecu1", "host", ports=ports, links=links,
            source=FORWARD_SOURCE,
        )
        ack = self.pirte.install(message)
        if ack.ok:
            self.next_id += n_ports
            self.model[name] = {pid for __, pid in ports}
        else:
            assert ack.status in (
                AckStatus.OUT_OF_MEMORY,
                AckStatus.CONTEXT_ERROR,
                AckStatus.LIFECYCLE_ERROR,
            )

    @rule(index=st.integers(0, 40))
    def uninstall(self, index):
        names = sorted(self.model)
        if not names:
            return
        name = names[index % len(names)]
        ack = self.pirte.uninstall(name)
        assert ack.ok
        del self.model[name]

    @rule(index=st.integers(0, 40), op=st.sampled_from(
        [MessageType.START, MessageType.STOP]
    ))
    def toggle_state(self, index, op):
        names = sorted(self.model)
        if not names:
            return
        name = names[index % len(names)]
        ack = self.pirte.set_state(name, op)
        assert ack.status in (AckStatus.OK, AckStatus.LIFECYCLE_ERROR)

    @rule(port_id=st.integers(0, 50), value=st.integers(-1000, 1000))
    def deliver(self, port_id, value):
        self.pirte.deliver_to_port(port_id, value)

    @rule(steps=st.integers(1, 4))
    def advance(self, steps):
        self.system.sim.run_for(steps * 2 * MS)

    @invariant()
    def memory_conserved(self):
        live = sum(
            a.blocks for a in self.pirte.pool.live_allocations()
        )
        assert self.pirte.pool.used_blocks == live
        assert len(self.pirte.pool.live_allocations()) == len(self.model)

    @invariant()
    def registry_consistent(self):
        assert set(self.pirte.plugins) == set(self.model)
        registered = self.pirte._ports_by_id
        expected_ids = set().union(*self.model.values()) if self.model else set()
        assert set(registered) == expected_ids
        for pid, plugin in registered.items():
            assert pid in self.model[plugin.name]

    @invariant()
    def states_legal(self):
        for plugin in self.pirte.plugins.values():
            assert plugin.state in (
                PluginState.RUNNING, PluginState.STOPPED,
                PluginState.INSTALLED,
            )

    @invariant()
    def backlog_bounded(self):
        assert self.pirte.backlog <= 2000


PirteMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestPirteStateful = PirteMachine.TestCase
