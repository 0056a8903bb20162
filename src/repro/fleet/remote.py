"""Remote vault queries over the simulated network (§6's support view).

TraceBack's premise is that a support engineer diagnoses a first fault
from evidence captured at a customer site — which at fleet scale means
the evidence lives in regional snap vaults the engineer cannot copy
locally.  This module is the wire between them:

* :class:`VaultService` — one vault's query server.  It speaks a small
  versioned request/response protocol (``hello`` / ``select`` /
  ``incidents`` / ``top`` / ``fetch_blob`` / ``fetch_mapfile``) whose
  frames are JSON with a body CRC, so damage in transit is *detected*,
  never silently served.  List responses are paginated at a
  server-side ``page_limit`` — one huge vault can never wedge a query
  behind an unbounded reply.  Manifest entries travel as metadata;
  TBSZ2 blobs are fetched lazily, one digest at a time, and CRC-checked
  again on arrival.
* :class:`RemoteVaultClient` — mirrors the
  :class:`~repro.fleet.query.VaultQuery` surface over that protocol,
  with a per-attempt cycle deadline and bounded seeded
  retry-with-backoff (the collector's backoff discipline,
  :func:`~repro.fleet.collector.backoff_with_jitter`).  All waiting is
  accounted in *simulated* cycles, so a query is bounded by
  construction: it returns, or raises :class:`VaultTimeout` /
  :class:`VaultUnavailable`, in at most ``(max_retries + 1)`` attempts
  — it can never hang a test or an engineer.

Transport rides the :class:`~repro.distributed.network.Network` at the
host level (like collector uploads): wire latency is charged to the
caller's machine, and the ``Network.query_chaos`` hook injects the
four transit faults the chaos suite sweeps (drop /
delay-past-deadline / corrupt-response / kill-server-mid-stream).  A
server bound to a machine whose guest threads never quiesced — a
deadlocked or runaway vault host — is *wedged*: it answers nothing,
and the client times out instead of blocking.
"""

from __future__ import annotations

import json
import random
import zlib
from typing import TYPE_CHECKING

from repro.fleet.collector import backoff_with_jitter
from repro.fleet.metrics import FleetMetrics
from repro.fleet.query import (
    Incident,
    VaultQuery,
    load_and_reconstruct,
    load_and_stitch,
)
from repro.fleet.store import SnapVault, VaultEntry
from repro.fleet.triage import CrashBucket
from repro.instrument.mapfile import Mapfile
from repro.reconstruct import DistributedTrace, ProcessTrace
from repro.runtime.archive import decompress_snap, salvage_decompress
from repro.runtime.snap import SnapFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.network import Network
    from repro.vm.machine import Machine

#: Protocol version string; both sides check it on every exchange.
PROTOCOL = "tb-vault-query/1"

#: Default server-side page bound for list responses.
DEFAULT_PAGE_LIMIT = 64


class RemoteQueryError(Exception):
    """Base class for remote vault query failures."""


class VaultTimeout(RemoteQueryError):
    """The request exhausted its deadline/retry budget without a reply."""


class VaultUnavailable(RemoteQueryError):
    """No live server is registered under the requested service id."""


class ProtocolError(RemoteQueryError):
    """A frame failed its integrity or protocol checks."""


# ----------------------------------------------------------------------
# Wire frames: JSON with a body CRC
# ----------------------------------------------------------------------
def encode_frame(body: dict) -> bytes:
    """Serialize one protocol frame: canonical JSON body + CRC32."""
    payload = json.dumps(body, sort_keys=True)
    return json.dumps(
        {"crc": zlib.crc32(payload.encode()), "body": payload}
    ).encode()


def decode_frame(data: bytes) -> dict:
    """Parse and integrity-check one frame; raises :class:`ProtocolError`."""
    try:
        outer = json.loads(data.decode())
        payload = outer["body"]
        crc = outer["crc"]
    except Exception as exc:  # noqa: BLE001 — any parse damage is one error
        raise ProtocolError(f"frame unparseable: {exc}") from None
    if not isinstance(payload, str) or zlib.crc32(payload.encode()) != crc:
        raise ProtocolError("frame body failed CRC check")
    return json.loads(payload)


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
class VaultService:
    """One vault's query server: decodes frames, serves bounded pages.

    ``machine`` optionally binds the server to the simulated machine
    hosting it; a server whose machine still has live guest threads
    after a run (``Network.run()`` ended ``"stalled"`` or ``"limit"``)
    is wedged and answers nothing — the client's deadline converts that
    into a timed-out vault rather than a hung query.
    """

    def __init__(
        self,
        vault: SnapVault,
        name: str = "vault",
        page_limit: int = DEFAULT_PAGE_LIMIT,
        machine: "Machine | None" = None,
        served_by=None,
    ):
        self.vault = vault
        self.query = VaultQuery(vault)
        self.name = name
        self.page_limit = max(1, page_limit)
        self.machine = machine
        #: The ServiceProcess hosting this server, when one does.
        self.served_by = served_by
        self.alive = True
        self.requests_served = 0

    def kill(self) -> None:
        """The server process dies (chaos: ``"kill-server"``)."""
        self.alive = False

    def wedged(self) -> bool:
        """True when the serving machine cannot answer queries.

        A machine with live guest threads after its run never reached
        quiescence — a deadlock ("stalled") or a runaway loop that blew
        the cycle budget ("limit").  Either way the host serving the
        vault is not answering the wire.
        """
        if not self.alive:
            return True
        if self.machine is None:
            return False
        return bool(self.machine._live_threads())

    # ------------------------------------------------------------------
    def handle_wire(self, data: bytes) -> bytes:
        """One request frame in, one response frame out.  Never raises."""
        try:
            request = decode_frame(data)
        except ProtocolError as exc:
            return encode_frame({"ok": False, "error": str(exc)})
        return encode_frame(self.handle(request))

    def handle(self, request: dict) -> dict:
        """Serve one decoded request; errors become error responses."""
        self.requests_served += 1
        proto = request.get("proto")
        if proto != PROTOCOL:
            return {
                "ok": False,
                "error": f"protocol mismatch: got {proto!r}, "
                f"serving {PROTOCOL!r}",
            }
        op = str(request.get("op") or "")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None or not op or op.startswith("_"):
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            result = handler(request.get("args") or {})
        except RemoteQueryError as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — a bad arg is the
            # client's error report, not a server crash
            return {"ok": False, "error": f"{op} failed: {exc}"}
        return {"ok": True, "result": result}

    # -- ops ------------------------------------------------------------
    def _page(self, items: list, offset) -> tuple[list, dict]:
        offset = max(0, int(offset or 0))
        page = items[offset : offset + self.page_limit]
        end = offset + len(page)
        return page, {
            "total": len(items),
            "next": end if end < len(items) else None,
        }

    def _op_hello(self, args: dict) -> dict:
        return {
            "proto": PROTOCOL,
            "service": self.name,
            "snaps": len(self.vault),
            "machines": self.vault.machines(),
            "page_limit": self.page_limit,
        }

    def _op_select(self, args: dict) -> dict:
        filters = {
            k: args[k]
            for k in ("machine", "process", "reason", "since", "until", "group")
            if args.get(k) is not None
        }
        entries = self.query.select(**filters)
        page, meta = self._page(entries, args.get("offset"))
        return {"entries": [e.to_dict() for e in page], **meta}

    def _op_incidents(self, args: dict) -> dict:
        filters = {
            k: args[k]
            for k in ("machine", "process", "reason", "group", "sync_id")
            if args.get(k) is not None
        }
        incidents = self.query.incidents(**filters)
        page, meta = self._page(incidents, args.get("offset"))
        return {
            "incidents": [
                {
                    "incident": incident.to_dict(),
                    "entries": [e.to_dict() for e in incident.entries],
                }
                for incident in page
            ],
            **meta,
        }

    def _op_top(self, args: dict) -> dict:
        buckets = self.query.top(limit=args.get("limit"))
        page, meta = self._page(buckets, args.get("offset"))
        return {"buckets": [b.to_dict() for b in page], **meta}

    def _op_fetch_blob(self, args: dict) -> dict:
        digest = args.get("digest")
        if not isinstance(digest, str) or not self.vault.contains(digest):
            raise RemoteQueryError(f"no stored blob {digest!r}")
        with open(self.vault.blob_path(digest), "rb") as fh:
            data = fh.read()
        return {"digest": digest, "blob": data.hex(), "crc": zlib.crc32(data)}

    def _op_fetch_mapfile(self, args: dict) -> dict:
        checksum = args.get("checksum")
        mapfiles = {m.checksum: m for m in self.vault.mapfiles()}
        if checksum is None:
            return {"checksums": sorted(mapfiles)}
        if checksum not in mapfiles:
            raise RemoteQueryError(f"no stored mapfile {checksum!r}")
        return {"mapfile": mapfiles[checksum].to_dict()}


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class RemoteVaultClient:
    """The :class:`~repro.fleet.query.VaultQuery` surface over the wire.

    Every exchange has a per-attempt ``deadline`` in simulated cycles:
    a dropped, delayed, or unanswered request costs the full deadline,
    then retries with the collector's seeded clamped backoff, up to
    ``max_retries`` — after which :class:`VaultTimeout` is raised.  All
    time is simulated, so the client terminates by construction.

    The ``partial=True`` form of the list methods returns
    ``(items, truncated)`` and tolerates a mid-pagination timeout or
    ``budget`` exhaustion by returning the pages already fetched —
    that is what federation builds its coverage ladder on.  The plain
    form mirrors ``VaultQuery`` exactly and never returns silently
    truncated results.
    """

    def __init__(
        self,
        network: "Network",
        service: str = "vault",
        machine: "Machine | None" = None,
        deadline: int = 20_000,
        max_retries: int = 4,
        backoff_base: int = 500,
        backoff_max: int = 8_000,
        seed: int = 0,
        metrics: FleetMetrics | None = None,
    ):
        self.network = network
        self.service = service
        #: Caller's machine; wire time is charged to its clock.
        self.machine = machine
        self.deadline = deadline
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.rng = random.Random(seed)
        self.metrics = metrics or FleetMetrics()
        #: Simulated cycles this client has spent waiting, total.
        self.cycles_spent = 0
        self._mapfile_cache: list[Mapfile] | None = None

    # ------------------------------------------------------------------
    def _charge(self, cycles: int) -> None:
        self.cycles_spent += cycles
        if self.machine is not None:
            self.machine.cycles += cycles

    def _exchange(self, op: str, args: dict, attempt: int):
        """One wire attempt -> ``(body | None, cost_cycles, failure)``."""
        network = self.network
        network.query_count += 1
        server = network.vault_service(self.service)
        if server is None:
            raise VaultUnavailable(
                f"no live vault server for service {self.service!r}"
            )
        hook = network.query_chaos
        verdict = hook(self.service, op, attempt) if hook else None
        if verdict == "drop":
            return None, self.deadline, "request dropped in transit"
        if server.wedged():
            return None, self.deadline, "vault server unresponsive"
        if verdict == "kill-server":
            server.kill()
            return None, self.deadline, "vault server died mid-stream"
        response = server.handle_wire(
            encode_frame({"proto": PROTOCOL, "op": op, "args": args})
        )
        if verdict == "delay":
            # The reply exists but lands after the deadline; the
            # client has already given up on this attempt.
            return None, self.deadline, "response delayed past deadline"
        if verdict == "corrupt":
            damaged = bytearray(response)
            damaged[self.rng.randrange(len(damaged))] ^= 0xFF
            response = bytes(damaged)
        cost = 2 * network.rpc_latency
        try:
            body = decode_frame(response)
        except ProtocolError as exc:
            return None, cost, f"response corrupt: {exc}"
        return body, cost, None

    def _request(self, op: str, args: dict | None = None) -> dict:
        """One protocol exchange with deadline + seeded backoff."""
        args = args or {}
        self.metrics.bump(remote_requests=1)
        attempts = 0
        failure = None
        while True:
            attempts += 1
            body, cost, failure = self._exchange(op, args, attempts)
            timed_out = cost > self.deadline
            self._charge(min(cost, self.deadline))
            if body is not None and not timed_out:
                if not body.get("ok"):
                    raise ProtocolError(
                        f"{op} on {self.service!r}: "
                        f"{body.get('error') or 'unknown server error'}"
                    )
                result = body.get("result")
                return result if isinstance(result, dict) else {}
            if attempts > self.max_retries:
                self.metrics.bump(remote_timeouts=1)
                raise VaultTimeout(
                    f"{op} on {self.service!r}: "
                    f"{failure or 'deadline exceeded'} "
                    f"after {attempts} attempt(s)"
                )
            backoff = backoff_with_jitter(
                self.backoff_base, attempts, self.rng, self.backoff_max
            )
            self._charge(backoff)
            self.metrics.bump(remote_retries=1, remote_backoff_cycles=backoff)

    def _paged(
        self,
        op: str,
        args: dict,
        key: str,
        budget: int | None,
        partial: bool,
    ) -> tuple[list, bool]:
        """Fetch every page of a list op -> ``(items, truncated)``.

        With ``partial=True``, a pagination budget (cycles) or a
        mid-pagination timeout ends the fetch with what arrived so far
        and ``truncated=True``; without it, every failure propagates
        and the result is always complete.
        """
        items: list = []
        offset: int | None = 0
        start = self.cycles_spent
        while offset is not None:
            if (
                partial
                and budget is not None
                and items
                and self.cycles_spent - start >= budget
            ):
                return items, True
            try:
                result = self._request(op, {**args, "offset": offset})
            except VaultTimeout:
                if partial and items:
                    return items, True
                raise
            self.metrics.bump(remote_pages=1)
            page = result.get(key)
            items.extend(page if isinstance(page, list) else [])
            offset = result.get("next")
        return items, False

    # ------------------------------------------------------------------
    # The VaultQuery mirror
    # ------------------------------------------------------------------
    def hello(self) -> dict:
        """Server identity and stats (protocol smoke check)."""
        return self._request("hello")

    def select(self, budget: int | None = None, partial: bool = False, **filters):
        """Manifest entries matching the filters (see SnapVault.select)."""
        docs, truncated = self._paged("select", filters, "entries", budget, partial)
        entries = [VaultEntry.from_dict(d) for d in docs]
        return (entries, truncated) if partial else entries

    def incidents(self, budget: int | None = None, partial: bool = False, **filters):
        """The vault's incident partition, reassembled from the wire."""
        docs, truncated = self._paged(
            "incidents", filters, "incidents", budget, partial
        )
        incidents = []
        for doc in docs:
            incidents.append(
                Incident(
                    incident_id=doc["incident"]["incident_id"],
                    entries=[VaultEntry.from_dict(d) for d in doc["entries"]],
                    links=set(doc["incident"]["links"]),
                )
            )
        return (incidents, truncated) if partial else incidents

    def top(
        self,
        limit: int | None = None,
        budget: int | None = None,
        partial: bool = False,
    ):
        """Ranked crash buckets, served by the remote vault."""
        docs, truncated = self._paged(
            "top", {"limit": limit}, "buckets", budget, partial
        )
        buckets = [CrashBucket(**doc) for doc in docs]
        return (buckets, truncated) if partial else buckets

    # ------------------------------------------------------------------
    # Lazy evidence fetch
    # ------------------------------------------------------------------
    def fetch_blob(self, digest: str) -> bytes:
        """One TBSZ2 container, CRC-checked on arrival."""
        result = self._request("fetch_blob", {"digest": digest})
        try:
            data = bytes.fromhex(result["blob"])
        except (KeyError, ValueError) as exc:
            raise ProtocolError(f"blob {digest[:12]} reply malformed: {exc}")
        if zlib.crc32(data) != result.get("crc"):
            raise ProtocolError(f"blob {digest[:12]} failed CRC on arrival")
        self.metrics.bump(remote_blob_fetches=1)
        return data

    def load(
        self, digest: str, salvage: bool = False
    ) -> tuple[SnapFile | None, list[str]]:
        """Fetch and decompress one stored snap (mirrors SnapVault.load)."""
        data = self.fetch_blob(digest)
        if salvage:
            return salvage_decompress(data)
        return decompress_snap(data), []

    def mapfiles(self) -> list[Mapfile]:
        """The vault's stored mapfiles, fetched once and cached."""
        if self._mapfile_cache is None:
            listing = self._request("fetch_mapfile", {})
            loaded = []
            for checksum in listing.get("checksums", []):
                doc = self._request("fetch_mapfile", {"checksum": checksum})
                loaded.append(Mapfile.from_dict(doc["mapfile"]))
            self._mapfile_cache = loaded
        return list(self._mapfile_cache)

    def reconstruct_entry(
        self, entry: VaultEntry | str, salvage: bool = False
    ) -> tuple[ProcessTrace, list[str]]:
        """Reconstruct one remote snap (mirrors VaultQuery)."""
        return load_and_reconstruct(self, entry, salvage=salvage)

    def reconstruct_incident(
        self, incident: Incident, salvage: bool = True
    ) -> DistributedTrace:
        """Stitch one incident's remote snaps into a master trace."""
        return load_and_stitch(self, incident, salvage=salvage)
