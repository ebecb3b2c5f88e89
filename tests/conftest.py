"""Shared fixtures for the HD-PSR test suite."""

from __future__ import annotations

import asyncio
import subprocess

import numpy as np
import pytest

from repro import HDSSConfig, HighDensityStorageServer
from repro.hdss.profiles import BimodalSlowProfile, UniformProfile
from repro.obs import MetricsRegistry, use_registry
from repro.service.client import ServiceClient, spawn_hdpsr, wait_for_port_file
from repro.service.netserver import ServiceDaemon

#: How long a test waits for a daemon subprocess to start or to exit.
START_TIMEOUT = 30.0


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_config() -> HDSSConfig:
    """A tiny, fast server config: 12 disks, RS(6,4), 64 KiB chunks."""
    return HDSSConfig(
        num_disks=12,
        n=6,
        k=4,
        chunk_size=64 * 1024,
        memory_chunks=8,
        spares=2,
        profile=UniformProfile(100e6),
        seed=42,
    )


@pytest.fixture
def small_server(small_config) -> HighDensityStorageServer:
    server = HighDensityStorageServer(small_config)
    server.provision_stripes(20, with_data=True)
    return server


@pytest.fixture
def hetero_server() -> HighDensityStorageServer:
    """Server with slow disks injected (10% at 4x slower)."""
    config = HDSSConfig(
        num_disks=20,
        n=9,
        k=6,
        chunk_size=64 * 1024,
        memory_chunks=12,
        spares=2,
        profile=BimodalSlowProfile(100e6, ros=0.15, slow_factor=4.0),
        seed=7,
    )
    server = HighDensityStorageServer(config)
    server.provision_stripes(40, with_data=False)
    return server


@pytest.fixture
def metadata_server(small_config) -> HighDensityStorageServer:
    """Metadata-only server (no chunk bytes) for scheduling tests."""
    server = HighDensityStorageServer(small_config)
    server.provision_stripes(30, with_data=False)
    return server


# ---------------------------------------------------------------------------
# Service-test scaffolding. The service tests build their servers with the
# chaos rig's ``build_server`` / ``build_service`` and import the helpers
# below with ``from tests.conftest import ...``.
# ---------------------------------------------------------------------------
@pytest.fixture
def fresh_registry():
    """A metrics registry of the test's own. Apply per file:
    ``pytestmark = pytest.mark.usefixtures("fresh_registry")``."""
    with use_registry(MetricsRegistry()):
        yield


async def start_daemon(service, **kwargs):
    """An in-process daemon on an ephemeral port: ``(daemon, port, task)``."""
    daemon = ServiceDaemon(service, **kwargs)
    port = await daemon.start()
    task = asyncio.create_task(daemon.serve_until_stopped())
    return daemon, port, task


async def stop_daemon(port, task):
    async with await ServiceClient.connect("127.0.0.1", port) as control:
        await control.call("shutdown")
    await task


@pytest.fixture
def serve(request, tmp_path):
    """``start(*extra)`` launches ``hdpsr serve <the test module's
    SERVER_ARGS> <extra>`` as a subprocess and returns ``(proc, port)``;
    whatever is still running at teardown is killed."""
    procs = []

    def start(*extra):
        port_file = tmp_path / f"port-{len(procs)}"
        proc = spawn_hdpsr(
            "serve", *request.module.SERVER_ARGS, "--port-file", str(port_file),
            *extra, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        procs.append(proc)
        return proc, wait_for_port_file(port_file, START_TIMEOUT, proc)

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
