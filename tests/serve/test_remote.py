"""Stale-socket recovery: a spool's Unix socket outliving its daemon.

(The remote ``--listen`` fleet is ``test_fleet.py``'s tcp carrier.)
"""

from __future__ import annotations

import os
import shutil
import socket
import tempfile

import pytest

from repro.common.errors import ServeError
from repro.serve.client import ServeClient
from repro.serve.daemon import SimServer
from tests.serve.test_daemon import running_server


def test_stale_socket_is_probed_and_rebound():
    """A socket file left by a dead daemon is unlinked (after a probe
    confirms nobody answers) and the new daemon binds normally."""
    root = tempfile.mkdtemp(dir="/tmp", prefix="rr-")
    try:
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(os.path.join(root, "serve.sock"))
        stale.close()  # no listen(): the file stays, nobody answers
        server = SimServer(root, fleet=1).start()
        try:
            client = ServeClient(server.socket_path)
            client.wait_up()
            assert client.ping()["fleet"] == 1
        finally:
            server.stop()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_live_daemon_socket_is_never_hijacked():
    """The probe distinguishes stale from live: a second daemon on a
    spool that is actually being served fails loudly."""
    with running_server(fleet=1) as (server, _client):
        with pytest.raises(ServeError, match="already listening"):
            SimServer(server.root, fleet=1).start()
        # The refused daemon must not have broken the live one.
        probe = ServeClient(server.socket_path)
        assert probe.alive()
