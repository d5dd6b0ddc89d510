"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.hardware.accelerator import Accelerator, NoC
from repro.model.layer import conv2d
from repro.model.zoo import build


@pytest.fixture(scope="session")
def vgg16():
    return build("vgg16")


@pytest.fixture(scope="session")
def alexnet():
    return build("alexnet")


@pytest.fixture(scope="session")
def mobilenet_v2():
    return build("mobilenet_v2")


@pytest.fixture
def small_conv():
    """A small convolution layer that analyzes and simulates quickly."""
    return conv2d("small", k=8, c=4, y=12, x=12, r=3, s=3)


@pytest.fixture
def conv1d_layer():
    """The Figure 4 1-D convolution: X' = 12 outputs, S = 6 taps."""
    return conv2d("conv1d", k=1, c=1, y=1, x=17, r=1, s=6)


@pytest.fixture
def accelerator():
    return Accelerator(num_pes=64, noc=NoC(bandwidth=32, avg_latency=2))


@pytest.fixture
def accelerator_256():
    return Accelerator(num_pes=256, noc=NoC(bandwidth=32, avg_latency=2))


@pytest.fixture(scope="session")
def failing_repeat_network():
    """A network with a repeated shape that YR-P cannot bind on 8 PEs.

    ``big1``/``big2`` share a shape whose ``Cluster(Sz(R))`` needs 11
    PEs; ``small1``/``small2`` share one that binds.
    """
    from repro.model.network import Network

    return Network(
        name="repeat",
        layers=(
            conv2d("small1", k=8, c=4, y=12, x=12, r=3, s=3),
            conv2d("big1", k=8, c=4, y=24, x=24, r=11, s=11),
            conv2d("small2", k=8, c=4, y=12, x=12, r=3, s=3),
            conv2d("big2", k=8, c=4, y=24, x=24, r=11, s=11),
        ),
    )
