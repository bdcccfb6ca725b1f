"""The kernel facade.

:class:`OsKernel` ties the software side together: the processor, the
interrupt controller, the block layer, PCI enumeration at boot, and
driver binding through module device tables — the same sequence a Linux
kernel performs on the paper's simulated machine.
"""

from typing import Dict, List, Optional

from repro.kernel.blockio import BlockLayer
from repro.kernel.interrupts import InterruptController
from repro.kernel.processor import Processor
from repro.pci.enumeration import Enumerator, FoundDevice
from repro.sim.process import Process
from repro.sim.simobject import SimObject, Simulator


class OsKernel(SimObject):
    """The operating system: processor + interrupts + block layer +
    enumeration + driver binding."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "kernel",
        parent: Optional[SimObject] = None,
    ):
        super().__init__(sim, name, parent)
        self.cpu = Processor(sim, "cpu", parent=self)
        self.intc = InterruptController(sim, "intc", parent=self)
        self.block_layer = BlockLayer(sim, "block_layer", parent=self)
        self.enumerator: Optional[Enumerator] = None
        # Set by the system builder when the platform has an MSI
        # doorbell; drivers program it into MSI-capable devices.
        self.msi_target_addr: Optional[int] = None
        self.drivers: List = []
        self._process_count = 0

    # -- boot ----------------------------------------------------------------
    def boot(self, host) -> List[FoundDevice]:
        """Enumerate the PCI hierarchy (the functional part of boot)
        into the platform's memory and I/O windows."""
        self.enumerator = Enumerator(host)
        return self.enumerator.enumerate()

    def bind_drivers(self, drivers: List, device_map: Dict) -> List:
        """Match discovered endpoints against each driver's module
        device table and run the winning driver's probe.

        Args:
            drivers: driver instances, in registration order (first
                match wins, like kernel module load order).  A driver
                already bound to an earlier device is skipped, so
                multi-device topologies pass one driver instance per
                device of a kind.
            device_map: maps a discovered function's ``(bus, device,
                function)`` to the device *model* so the probe can reach
                its functional side-channels.

        Returns the list of (driver, FoundDevice) bindings made.
        """
        if self.enumerator is None:
            raise RuntimeError("boot() must run before bind_drivers()")
        bindings = []
        for node in self.enumerator.all_devices():
            if node.is_bridge:
                continue
            for driver in drivers:
                if driver.bound or not driver.matches(node):
                    continue
                device_model = device_map.get(node.bdf)
                driver.bind(self, node, device_model)
                bindings.append((driver, node))
                break
        self.drivers = [driver for driver, __ in bindings]
        return bindings

    # -- checkpointing -------------------------------------------------------------
    # spawn() names processes {name}_{count}, and process names appear in
    # event labels and stat paths: a forked run continues the numbering.
    state_fields = {"_process_count": "accumulator"}

    # -- process management --------------------------------------------------------
    def spawn(self, name: str, generator, start_delay: int = 0) -> Process:
        """Run a software activity as a kernel process."""
        self._process_count += 1
        return Process(self.sim, f"{name}_{self._process_count}", generator,
                       parent=self, start_delay=start_delay)
