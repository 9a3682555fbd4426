"""A test supply whose physics constants differ from the model's.

``EnergyHarvester`` has no options for its conversion efficiency, recharge
step or dead-supply timeout: the product runs the class constants.  Tests
that want round numbers (``efficiency=1.0``) or a dead supply that gives up
in milliseconds override them on one instance.
"""

from repro.power.harvester import EnergyHarvester


def harvester(trace, capacitor, **constants) -> EnergyHarvester:
    supply = EnergyHarvester(trace, capacitor)
    for name, value in constants.items():
        getattr(EnergyHarvester, name)  # only an existing constant
        setattr(supply, name, value)
    return supply
