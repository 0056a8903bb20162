"""``tbtrace query|incidents|top`` over the wire: ``--remote`` and
``--federate`` (one vault and two regional vaults), text and ``--json``,
plus every flag combination the wire modes refuse.

The JSON forms are pinned against the local vault: a remote answer is
the local answer, and a federated answer is the canonical (digest-
ordered) merge of every region's answer followed by one coverage line.
"""

import json

import pytest

from repro.chaos.scenarios import build_federated_fleet, build_vault_run
from repro.fleet import SnapVault, VaultQuery
from repro.tools.tb import main

MACHINES = ["machine-a", "machine-b", "machine-c"]
SIG = "unhandled:DIVIDE_BY_ZERO @ client.main(client.c:10)"


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """One three-machine incident in one vault (served as ``demo``)."""
    root = str(tmp_path_factory.mktemp("wire") / "demo")
    _vault, collector, session = build_vault_run(vault_root=root)
    session.network.run()
    collector.drain()
    return root


@pytest.fixture(scope="module")
def regions(tmp_path_factory):
    """The same incident split across two regional vaults."""
    base = tmp_path_factory.mktemp("regions")
    roots = {name: str(base / name) for name in ("vault-east", "vault-west")}
    build_federated_fleet(roots)
    return [roots["vault-east"], roots["vault-west"]]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def vault_args(roots):
    return [arg for root in roots for arg in ("--vault", root)]


def json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.strip().splitlines()]


def local_docs(root: str, what: str) -> list[dict]:
    query = VaultQuery(SnapVault(root))
    items = {
        "query": query.select,
        "incidents": query.incidents,
        "top": query.top,
    }[what]()
    return [item.to_dict() for item in items]


def all_digests(roots) -> list[str]:
    return sorted(
        e.digest for root in roots for e in SnapVault(root).select()
    )


# ----------------------------------------------------------------------
# --remote: the local answer, through the wire
# ----------------------------------------------------------------------
@pytest.mark.parametrize("what", ["query", "incidents", "top"])
def test_remote_json_equals_local(demo, capsys, what):
    rc, out, err = run(capsys, what, "--vault", demo, "--remote", "--json")
    assert rc == 0, err
    assert json_lines(out) == local_docs(demo, what)


def test_remote_query_text(demo, capsys):
    rc, out, _ = run(capsys, "query", "--vault", demo, "--remote")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "3 snap(s) match"
    for entry in SnapVault(demo).select():
        assert any(
            line.startswith(f"  {entry.digest[:12]}  ")
            and f"{entry.machine}/{entry.process}  {entry.reason}" in line
            and f"clock {entry.clock}  {entry.size}B" in line
            for line in lines[1:]
        )
    assert "federation coverage" not in out
    # One render path: the wire listing is the local listing.
    assert run(capsys, "query", "--vault", demo)[1] == out


@pytest.mark.parametrize("what", ["incidents", "top"])
def test_remote_text_equals_local_but_for_where(demo, capsys, what):
    _, local, _ = run(capsys, what, "--vault", demo)
    rc, remote, _ = run(capsys, what, "--vault", demo, "--remote")
    assert rc == 0
    assert remote == local.replace(
        f" in {demo}", " in remote vault 'demo'", 1
    )


def test_remote_query_filters(demo, capsys):
    rc, out, _ = run(
        capsys, "query", "--vault", demo, "--remote",
        "--machine", "machine-a", "--json",
    )
    assert rc == 0
    assert [row["machine"] for row in json_lines(out)] == ["machine-a"]


def test_remote_incidents_reconstruct(demo, capsys):
    rc, out, _ = run(capsys, "incidents", "--vault", demo, "--remote")
    assert rc == 0
    assert out.startswith("1 incident(s) in remote vault 'demo'\n")
    assert "incident #0: 3 snap(s)" in out
    assert "degradation: full (no losses)" in out
    assert "logical thread" in out  # reconstructed from wire evidence


def test_remote_incidents_list_only(demo, capsys):
    rc, out, _ = run(
        capsys, "incidents", "--vault", demo, "--remote", "--list"
    )
    assert rc == 0
    assert "incident #0:" in out
    assert "logical thread" not in out


def test_remote_top_text(demo, capsys):
    rc, out, _ = run(capsys, "top", "--vault", demo, "--remote")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == (
        "1 crash bucket(s) in remote vault 'demo' (1/3 snap(s) bucketed)"
    )
    assert lines[1].startswith("  #1 [")
    assert lines[1].endswith(f"  seqs 0..2  {SIG}")


def test_remote_timeout_fails_cleanly(demo, capsys):
    rc, out, err = run(
        capsys, "query", "--vault", demo, "--remote", "--timeout", "1"
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("tbtrace: error: select on 'demo': ")
    assert "attempt(s)" in err


# ----------------------------------------------------------------------
# --federate: one vault and two regional vaults
# ----------------------------------------------------------------------
def coverage_line(roots, items: list[int]) -> dict:
    names = [root.rstrip("/").rsplit("/", 1)[-1] for root in roots]
    return {
        "federation": {
            "coverage": "full",
            "degraded": [],
            "vaults": [
                {"detail": "", "items": n, "name": name, "status": "ok"}
                for name, n in zip(names, items)
            ],
        }
    }


@pytest.fixture(params=["one", "two"])
def fleet(request, demo, regions):
    """``(roots, per-vault snap counts, per-vault incident counts)``."""
    if request.param == "one":
        return [demo], [3], [1]
    return regions, [2, 1], [1, 1]


def test_federated_query_json(fleet, capsys):
    roots, snaps, _ = fleet
    rc, out, err = run(
        capsys, "query", *vault_args(roots), "--federate", "--json"
    )
    assert rc == 0, err
    *rows, coverage = json_lines(out)
    assert [row["digest"] for row in rows] == all_digests(roots)
    assert {row["machine"] for row in rows} == set(MACHINES)
    assert coverage == coverage_line(roots, snaps)


def test_federated_incidents_json(fleet, capsys):
    roots, _, incidents = fleet
    rc, out, err = run(
        capsys, "incidents", *vault_args(roots), "--federate", "--json"
    )
    assert rc == 0, err
    incident, coverage = json_lines(out)
    assert incident == {
        "incident_id": 0,
        "snaps": 3,
        "machines": MACHINES,
        "processes": ["backend", "client", "frontend"],
        "reasons": ["group", "unhandled"],
        "groups": ["chain"],
        "initiator": "client",
        "links": ["group-snap", "sync-link"],
        "entries": all_digests(roots),
    }
    assert coverage == coverage_line(roots, incidents)


def test_federated_top_json(fleet, capsys):
    roots, _, incidents = fleet
    rc, out, err = run(
        capsys, "top", *vault_args(roots), "--federate", "--json"
    )
    assert rc == 0, err
    bucket, coverage = json_lines(out)
    client = SnapVault(roots[0]).select(machine="machine-a")[0]
    assert bucket == {
        "key": local_docs(roots[0], "top")[0]["key"],
        "sig": SIG,
        "count": 3,
        "incidents": 1,
        "machines": MACHINES,
        "processes": ["backend", "client", "frontend"],
        "exemplar": client.digest,
    }
    assert coverage == coverage_line(roots, incidents)


def test_federated_query_text(fleet, capsys):
    roots, snaps, _ = fleet
    rc, out, _ = run(capsys, "query", *vault_args(roots), "--federate")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "3 snap(s) match"
    listed = [line.split()[0] for line in lines[1:4]]
    assert listed == [d[:12] for d in all_digests(roots)]
    assert all("  seq " in line and "sync id(s)" in line for line in lines[1:4])
    assert lines[4] == "federation coverage: full"
    assert len(lines) == 5 + len(roots)


def test_federated_incidents_text_lists_only(fleet, capsys):
    roots, _, _ = fleet
    rc, out, _ = run(capsys, "incidents", *vault_args(roots), "--federate")
    assert rc == 0
    assert out.startswith(f"1 incident(s) in {len(roots)} federated vault(s)")
    assert "incident #0: 3 snap(s)" in out
    assert "logical thread" not in out  # federated incidents only list
    assert "federation coverage: full" in out


def test_federated_top_text(fleet, capsys):
    roots, _, _ = fleet
    rc, out, _ = run(capsys, "top", *vault_args(roots), "--federate")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == (
        f"1 crash bucket(s) in {len(roots)} federated vault(s) "
        "(1/3 snap(s) bucketed)"
    )
    key = local_docs(roots[0], "top")[0]["key"]
    # Federated buckets carry no ingest seqs.
    assert lines[1] == (
        f"  #1 [{key}] 3 snap(s) / 1 incident(s)  "
        f"machines {','.join(MACHINES)}  {SIG}"
    )
    assert "federation coverage: full" in lines


# ----------------------------------------------------------------------
# Refusals: exit 1 with a one-line reason, nothing on stdout
# ----------------------------------------------------------------------
REFUSALS = [
    (["--remote", "--federate"],
     "--remote and --federate are mutually exclusive"),
    (["--vault", "{other}"], "multiple --vault roots require --federate"),
    (["--vault", "{other}", "--remote"],
     "multiple --vault roots require --federate"),
    (["--timeout", "5"], "--timeout only applies with --remote or --federate"),
]


@pytest.mark.parametrize("what", ["query", "incidents", "top"])
@pytest.mark.parametrize("extra,message", REFUSALS)
def test_wire_flag_refusals(demo, regions, capsys, what, extra, message):
    extra = [arg.format(other=regions[0]) for arg in extra]
    rc, out, err = run(capsys, what, "--vault", demo, *extra)
    assert rc == 1
    assert out == ""
    assert err == f"tbtrace: error: {message}\n"


def test_replay_timeout_needs_remote(demo, capsys):
    rc, out, err = run(
        capsys, "replay", "abcd", "--vault", demo, "--timeout", "5"
    )
    assert rc == 1
    assert out == ""
    assert err == (
        "tbtrace: error: --timeout only applies with --remote or --federate\n"
    )


@pytest.mark.parametrize("wire", ["--remote", "--federate"])
def test_show_needs_local_vault(demo, capsys, wire):
    rc, out, err = run(
        capsys, "query", "--vault", demo, wire, "--show", "abcd"
    )
    assert rc == 1
    assert out == ""
    assert err == (
        "tbtrace: error: --show needs a local vault (wire queries list only)\n"
    )


@pytest.mark.parametrize("wire", ["--remote", "--federate"])
def test_window_needs_local_vault(demo, capsys, wire):
    rc, out, err = run(
        capsys, "incidents", "--vault", demo, wire, "--window", "4"
    )
    assert rc == 1
    assert out == ""
    assert err == "tbtrace: error: --window needs a local vault\n"


# ----------------------------------------------------------------------
# A missing vault root is an error in every mode, and nothing is created
# ----------------------------------------------------------------------
@pytest.mark.parametrize("what", ["query", "incidents", "top"])
@pytest.mark.parametrize("mode", ["local", "--remote", "--federate"])
def test_missing_vault_root_is_refused(regions, tmp_path, capsys, what, mode):
    typo = str(tmp_path / "no-such-vault")
    roots = [regions[0], typo] if mode == "--federate" else [typo]
    extra = [] if mode == "local" else [mode]
    rc, out, err = run(capsys, what, *vault_args(roots), *extra)
    assert rc == 1
    assert out == ""
    assert err == (
        f"tbtrace: error: cannot open vault {typo}: no such directory\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_serve_refuses_a_missing_vault_root(tmp_path, capsys):
    typo = str(tmp_path / "no-such-vault")
    rc, out, err = run(capsys, "serve", "--vault", typo)
    assert rc == 1
    assert err == (
        f"tbtrace: error: cannot open vault {typo}: no such directory\n"
    )
    assert list(tmp_path.iterdir()) == []
