"""The public surface: exported names and value-type equality."""

from pathlib import Path

import numpy as np
import pytest

import rolljoint
from rolljoint.catalog import demo_five_link, polynomial_link_chain, standard_link_chain
from rolljoint.fileio import load_scenario
from rolljoint.geometry import Pose2, Twist2, Wrench2
from rolljoint.loads import ConstantBody, ConstantWorkspace, ExternalLoad, LinearSpring
from rolljoint.mechanism import evaluate
from rolljoint.solver_tension import newton_step
from rolljoint.statics import assemble_blocks

SCENARIO = Path(rolljoint.__file__).parent / "scenarios" / "tension_63_pull.json"


def test_every_exported_name_resolves():
    namespace = {}
    exec("from rolljoint import *", namespace)
    missing = [name for name in rolljoint.__all__ if name not in namespace]
    assert missing == []


def _configuration():
    design = demo_five_link()
    s = np.array([0.5, -1.0, 2.0, 0.3])
    f = np.tile([0.2, 1.5], (4, 1))
    return design, evaluate(design, s, f)


def _blocks():
    design, config = _configuration()
    return assemble_blocks(design, config, (3.0, 1.0))


# each builder makes a fresh value; two calls give equal twins
VALUES = {
    "Pose2": lambda: Pose2(0.3, (1.0, 2.0)),
    "Twist2": lambda: Twist2(0.5, (1.0, 0.0)),
    "Wrench2": lambda: Wrench2(0.1, (1.0, 2.0)),
    "ExternalLoad": lambda: ExternalLoad(target_link=2),
    "ConstantBody": lambda: ConstantBody(target_link=2, wrench=Wrench2(0.1, (1.0, 2.0))),
    "ConstantWorkspace": lambda: ConstantWorkspace(
        target_link=5, wrench=Wrench2(0.0, (0.5, 0.0)), attach=(1.0, 0.0)),
    "LinearSpring": lambda: LinearSpring(target_link=5, stiffness=0.1, anchor=(1.0, 2.0)),
    "LinkDesign": lambda: demo_five_link().links[1],
    "MechanismDesign": demo_five_link,
    "Configuration": lambda: _configuration()[1],
    "SegmentGeometry": lambda: _configuration()[1].geometry.v,
    "JointGeometry": lambda: _configuration()[1].geometry,
    "NewtonStep": lambda: newton_step(*_configuration(), (3.0, 1.0)),
    "LinkBlocks": _blocks,
    "CircularArc": lambda: standard_link_chain(2).links[0].child_surface,
    "CurvatureProfile": lambda: polynomial_link_chain(2).links[0].child_surface,
    "Scenario": lambda: load_scenario(SCENARIO),
}


@pytest.mark.parametrize("build", VALUES.values(), ids=VALUES.keys())
def test_value_types_compare_by_identity(build):
    # array fields make field-wise equality ambiguous; comparing never
    # raises and a value equals itself
    value, twin = build(), build()
    assert type(value) is type(twin)
    assert isinstance(value == twin, bool)
    assert isinstance(value != twin, bool)
    assert value == value
