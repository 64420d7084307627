"""Replay-mode sweeps: record each workload's stream once, replay it per
scheme.

A full (app x scheme) sweep through the timing simulator regenerates
the workload and re-runs the GPU front end for every cell even though
only the cache management differs — the coalesced access stream is
identical across schemes by construction.  This executor exploits that:
cells that differ only in scheme share one recorded trace (the trace key
hashes the *stream* identity, never the scheme — see
:func:`repro.experiments.store.stream_fingerprint`), so a 4-policy sweep
costs 1 capture + 4 replays instead of 4 full simulations.

Replay results resolve against the standard result store under
replay-mode keys (:func:`repro.experiments.store.replay_cell_key`), so
they warm-cache across invocations exactly like timing results while
never colliding with them.  All accounting is exposed as counters
(:class:`ReplaySweepStats` + the store's own stats) so tests assert
"1 capture + 4 replays" on counts, not wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union, cast

if TYPE_CHECKING:  # pragma: no cover — typing only (lazy at runtime)
    from repro.batchsim.grid import GridAxis

from repro.experiments.store import (
    MemoryStore,
    replay_cell_key,
    trace_key,
)
from repro.fastsim import validate_engine
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimResult
from repro.trace.format import TraceReader
from repro.trace.record import record_workload
from repro.trace.replay import replay_records, replay_trace
from repro.workloads import make_workload


@dataclass
class ReplaySweepStats:
    """What the replay sweep actually did (the acceptance counters)."""

    recorded: int = 0      # traces captured this run
    trace_hits: int = 0    # missing cells served by an earlier capture
    replayed: int = 0      # cells driven through the replay engine
    store_hits: int = 0    # cells resolved from the result store

    def as_dict(self) -> Dict[str, int]:
        return {
            "recorded": self.recorded,
            "trace_hits": self.trace_hits,
            "replayed": self.replayed,
            "store_hits": self.store_hits,
        }


class TraceStore:
    """Directory of recorded traces, content-addressed by stream key.

    The one owner of the ``{key}.rptr`` layout: the replay sweep, the
    serve replay worker and the prediction tier all find (and the first
    two record) streams through it.  Recording is atomic —
    :meth:`TraceWriter.close <repro.trace.format.TraceWriter.close>`
    writes a tmp file and renames it into place — so two processes
    racing to capture one stream at worst record it twice, and a reader
    never observes a torn trace.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.rptr"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def find(self, abbr: str, config: GPUConfig, scale: float,
             seed: int) -> Optional[Path]:
        """The recorded trace of this workload stream, if there is one."""
        path = self.path_for(trace_key(abbr, config, scale=scale, seed=seed))
        return path if path.exists() else None

    def get_or_record(self, abbr: str, config: GPUConfig, scale: float,
                      seed: int) -> Tuple[TraceReader, bool]:
        """The stream's trace, recorded first if absent; returns
        ``(reader, recorded)``."""
        path = self.path_for(trace_key(abbr, config, scale=scale, seed=seed))
        recorded = not path.exists()
        if recorded:
            record_workload(make_workload(abbr, scale, seed=seed),
                            config, path)
        return TraceReader(path), recorded

    def ls(self) -> List[Dict[str, object]]:
        entries = []
        for path in sorted(self.root.glob("*.rptr")):
            try:
                reader = TraceReader(path)
            except Exception:  # foreign/torn file: list nothing for it
                continue
            entries.append({"key": path.stem, **reader.meta,
                            "records": reader.total_records})
        return entries

    def clear(self) -> int:
        count = 0
        for path in self.root.glob("*.rptr"):
            path.unlink()
            count += 1
        return count


class ReplaySweepExecutor:
    """Resolve an experiment grid via record-once / replay-per-scheme.

    Every entry point resolves its cells through one path: store lookups
    first, then one record-once trace per app for the misses, then the
    missing cells — as lanes of one
    :func:`~repro.batchsim.engine.replay_batch` pass under the packed
    engine, one by one under the reference engine.  Either way the store
    ends up byte-identical: same keys, same meta, same results.

    Parameters
    ----------
    store:
        Result store for replayed cells (``MemoryStore`` by default;
        pass a :class:`~repro.experiments.store.ResultStore` to share
        replay results across invocations).
    trace_dir:
        Where recorded traces live.  ``None`` keeps captures in a
        private in-memory record list (no file layer); point at a
        directory to persist traces in the binary format and share them
        across invocations and with the ``repro trace`` verbs.
    engine:
        L1D implementation used for replays (``reference`` or ``fast``;
        ``batch`` is another spelling of ``fast``).  The engines are
        bit-identical, so the choice never enters trace keys or
        replay-result store keys — results computed by either resolve
        the same entries.
    """

    def __init__(self, store=None, trace_dir=None,
                 config: Optional[GPUConfig] = None,
                 engine: str = "reference") -> None:
        self.store = store if store is not None else MemoryStore()
        self.traces = TraceStore(trace_dir) if trace_dir is not None else None
        self._memory_traces: Dict[str, List] = {}
        self.config = config
        self.engine = validate_engine(engine)
        self.stats = ReplaySweepStats()

    # ------------------------------------------------------------------

    def _resolved_config(self, num_sms: int) -> GPUConfig:
        return self.config if self.config is not None \
            else GPUConfig().scaled(num_sms)

    def _get_or_record(self, abbr: str, config: GPUConfig,
                       scale: float, seed: int, uses: int):
        """Return something replayable for this stream, capturing it at
        most once per key.  ``uses`` missing cells will replay it; each
        one the capture did not serve counts as a trace hit."""
        if self.traces is not None:
            source, recorded = self.traces.get_or_record(
                abbr, config, scale, seed)
        else:
            key = trace_key(abbr, config, scale=scale, seed=seed)
            source = self._memory_traces.get(key)
            recorded = source is None
            if source is None:
                from repro.trace.record import capture_records

                source = capture_records(
                    make_workload(abbr, scale, seed=seed), config)
                self._memory_traces[key] = source
        self.stats.recorded += int(recorded)
        self.stats.trace_hits += uses - int(recorded)
        return source

    def _cell_meta(self, abbr: str, scheme: str, config: GPUConfig,
                   scale: float, seed: int) -> Dict[str, object]:
        meta: Dict[str, object] = {
            "abbr": abbr, "scheme": scheme, "mode": "replay",
            "num_sms": config.num_sms, "scale": scale, "seed": seed,
        }
        if config.l1d.non_blocking:
            meta["non_blocking"] = True
        return meta

    def _resolve_cells(
        self,
        abbr: str,
        cells: Sequence[Tuple[str, Dict[str, Any]]],
        num_sms: int,
        scale: float,
        seed: int,
    ) -> List[SimResult]:
        """Resolve one app's (scheme, policy_kwargs) cells, in order."""
        abbr = abbr.upper()
        config = self._resolved_config(num_sms)
        results: List[Optional[SimResult]] = [None] * len(cells)
        missing: List[Tuple[int, str, str, Dict[str, Any]]] = []
        for idx, (scheme, policy_kwargs) in enumerate(cells):
            key = replay_cell_key(
                abbr, scheme, config, scale=scale, seed=seed,
                policy_kwargs=policy_kwargs,
            )
            cached = self.store.get(key)
            if cached is not None:
                self.stats.store_hits += 1
                results[idx] = cached
            else:
                missing.append((idx, key, scheme, policy_kwargs))
        if missing:
            source = self._get_or_record(abbr, config, scale, seed,
                                         len(missing))
            lanes = [(scheme, kwargs) for _, _, scheme, kwargs in missing]
            if self.engine == "reference":
                replayed = [self._replay_reference(source, config, scheme,
                                                   kwargs)
                            for scheme, kwargs in lanes]
            else:
                from repro.batchsim.engine import replay_batch

                replayed = replay_batch(source, lanes, config)
            self.stats.replayed += len(missing)
            for (idx, key, scheme, _), result in zip(missing, replayed):
                self.store.put(
                    key, result,
                    meta=self._cell_meta(abbr, scheme, config, scale, seed),
                )
                results[idx] = result
        return cast(List[SimResult], results)

    @staticmethod
    def _replay_reference(source, config: GPUConfig, scheme: str,
                          policy_kwargs: Dict[str, Any]) -> SimResult:
        if isinstance(source, TraceReader):
            return replay_trace(source, scheme, config, **policy_kwargs)
        return replay_records(iter(source), config, scheme, **policy_kwargs)

    def run_cell(
        self,
        abbr: str,
        scheme: str,
        num_sms: int = 4,
        scale: float = 1.0,
        seed: int = 0,
        **policy_kwargs,
    ) -> SimResult:
        return self._resolve_cells(abbr, [(scheme, policy_kwargs)],
                                   num_sms, scale, seed)[0]

    def run_sweep(
        self,
        apps: Sequence[str],
        schemes: Sequence[str],
        num_sms: int = 4,
        scale: float = 1.0,
        seed: int = 0,
        **policy_kwargs,
    ) -> Dict[str, Dict[str, SimResult]]:
        """The full app x scheme matrix as ``{app: {scheme: result}}``.

        Iteration is app-major so each app's trace is captured exactly
        once and immediately reused by every scheme."""
        return {
            app.upper(): dict(zip(schemes, self._resolve_cells(
                app, [(scheme, dict(policy_kwargs)) for scheme in schemes],
                num_sms, scale, seed,
            )))
            for app in apps
        }

    def run_grid(
        self,
        app: str,
        scheme: str,
        axes: Sequence["GridAxis"],
        num_sms: int = 4,
        scale: float = 1.0,
        seed: int = 0,
        **base_kwargs,
    ) -> "Dict[str, SimResult]":
        """A Fig. 9-style frontier map: one app, one scheme, a cross
        product of policy-knob axes, as ``{cell_label: result}``.

        Every grid point stores under its own replay cell key (the
        policy kwargs enter the key), so grids warm-cache incrementally
        and across engines.
        """
        from repro.batchsim.grid import cell_label, expand_grid

        combos = expand_grid(list(axes))
        cells = [(scheme, {**base_kwargs, **combo}) for combo in combos]
        replayed = self._resolve_cells(app, cells, num_sms, scale, seed)
        return {
            cell_label(combo): result
            for combo, result in zip(combos, replayed)
        }
