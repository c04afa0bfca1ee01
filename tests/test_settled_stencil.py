"""The d_S bound that lets the transported reports skip the cutoff's stencil.

``bubbling._settled_nodes`` proves, from the gauge of a base node and the
D_m = |P_m|^2 of its group point m = c . d_R(w) alone, that the cutoff is
exactly 1 (or exactly 0) at the node and at every point of its flow stencil.
These tests evaluate the cutoff through ``map_zt`` and ``CutoffSpec.value``
at every one of those points on every rung of the default ladder, with the
step of each report, and check the claim node by node: for a chart at
(1, 0), whose group centre is the origin, and for one whose group centre
has z != 0 and t != 0.
"""

from dataclasses import replace

import numpy as np
import pytest

from cryamabe.bubbling import BubbleChart, _settled_nodes
from cryamabe.config import ExperimentConfig
from cryamabe.energy import YamabeConstants, _dirichlet_step
from cryamabe.heisenberg import ShellScheme, _flow_stencil, gauge_zt, shell_nodes

LADDER = ExperimentConfig().rn_ladder
CENTER = np.array([1.0 + 0j, 0.0 + 0j])
# a centre whose group point has z != 0 and t != 0, so fac(c) != 1
OFF_AXIS = np.array([0.6 + 0j, 0.8j])


@pytest.mark.parametrize("h_factor", [0.01, 0.02], ids=["dirichlet", "residual"])
@pytest.mark.parametrize("n", range(len(LADDER)))
def test_settled_nodes_have_an_exactly_constant_cutoff(n, h_factor):
    _check_settled_nodes(CENTER, n, h_factor)


@pytest.mark.parametrize("h_factor", [0.01, 0.02], ids=["dirichlet", "residual"])
@pytest.mark.parametrize("n", range(len(LADDER)))
def test_settled_nodes_off_axis(n, h_factor):
    _check_settled_nodes(OFF_AXIS, n, h_factor)


def _check_settled_nodes(centre, n, h_factor):
    chart = BubbleChart.standard(centre, LADDER, YamabeConstants.create(1.0))
    conf, cut = chart.chart(n), chart.cutoff
    # the default reach of both reports on coarse grids
    scheme = replace(ShellScheme.reaching(4.0 / LADDER[n]), n_inner=24, n_shell=16)
    n_one = n_zero = 0
    for _, z, t, _ in shell_nodes(scheme):
        h = _dirichlet_step(z, t, h_factor)
        zm, tm = conf.group_point_zt(z, t)
        one, zero = _settled_nodes(chart, conf, gauge_zt(z, t), (1.0 + np.abs(zm) ** 2) ** 2 + tm * tm, h)
        assert not np.any(one & zero)
        betas = [cut.value(conf.map_zt(z, t))]
        for _, (zp, tp), (zm, tm) in _flow_stencil(z, t, h):
            betas += [cut.value(conf.map_zt(zp, tp)), cut.value(conf.map_zt(zm, tm))]
        for beta in betas:
            assert np.all(beta[one] == 1.0)
            assert np.all(beta[zero] == 0.0)
        n_one += int(one.sum())
        n_zero += int(zero.sum())
    assert n_one > 0 and n_zero > 0
