"""One pool of shards for every parallel stage: the server process plus up
to one forked process per usable CPU.

Items are spread over the shards, item i to shard i mod W, and a request
runs a named method on each item; the replies come back in item order, so a
result does not depend on W.  The users are corpus generation and dataset
formatting (one job per trace), the federation's clients, the evaluation
matrix's jobs and the pooled scoring of test windows.  Nothing here imports
from the rest of the package, so every layer can use the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback


def _shard_reply(clients: list, method: str, args: tuple) -> list:
    """One shard's answer to a broadcast: `method(*args)` on each of its clients."""
    return [getattr(client, method)(*args) for client in clients]


def _serve(conn, clients: list, inherited: list) -> None:
    """A forked shard: answer the server's requests until it hangs up.

    A failure goes back to the server, which raises it; the shard keeps
    serving.  A closed pipe, from either side, ends the shard.
    """
    for other in inherited:  # the server's ends of the pipes, its own included
        other.close()
    with conn:
        while True:
            try:
                method, args = conn.recv()
            except EOFError:
                return
            try:
                reply = ("ok", _shard_reply(clients, method, args), None)
            except Exception as exc:  # noqa: BLE001 - raised again in the server
                reply = ("error", exc, traceback.format_exc())
            try:
                conn.send(reply)
            except BrokenPipeError:
                return


class _Shards:
    """The items, such as a federation's active clients, spread over shards,
    item i to shard i mod n.

    Shard 0 is the server process.  Every other shard is a process forked
    once, when the shards are made, so it starts with its clients in memory;
    only requests and their replies cross its pipe.  Used as a context
    manager, which ends every forked shard on the way out.
    """

    #: seconds a shard that was hung up on may take to exit
    EXIT_TIMEOUT_S = 10.0

    def __init__(self, clients: list, n: int):
        self._clients = clients
        self._n = n
        self._conns: list = []
        self._procs: list = []
        ctx = multiprocessing.get_context("fork")
        try:
            for k in range(1, n):
                here, there = ctx.Pipe()
                proc = ctx.Process(
                    target=_serve, args=(there, clients[k::n], [*self._conns, here]), daemon=True
                )
                proc.start()
                there.close()
                self._conns.append(here)
                self._procs.append(proc)
        except BaseException:
            self._stop(abort=True)
            raise

    def __enter__(self) -> "_Shards":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop(abort=exc_type is not None)

    def _stop(self, abort: bool) -> None:
        # a forked shard exits when its pipe closes; one still working on a
        # request the server no longer waits for is terminated
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            if abort:
                proc.terminate()
            proc.join(self.EXIT_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                proc.join()

    def ask(self, method: str, *args) -> list:
        """`method(*args)` on every client, the results in client order."""
        for conn in self._conns:
            conn.send((method, args))
        replies = [_shard_reply(self._clients[:: self._n], method, args)]
        for k, conn in enumerate(self._conns, 1):
            try:
                status, payload, remote_tb = conn.recv()
            except EOFError:
                raise RuntimeError(f"shard {k} exited without replying") from None
            if status == "error":
                raise payload from RuntimeError(f"in shard {k}:\n{remote_tb}")
            replies.append(payload)
        results: list = [None] * len(self._clients)
        for k, reply in enumerate(replies):
            results[k :: self._n] = reply
        return results


def _shard_count(n_clients: int) -> int:
    """One shard per CPU this process may run on, at most one per client
    and at least one: shard 0, the server, answers for an empty list.

    A process that already runs other threads stays one shard: an unpinned
    BLAS keeps a thread per CPU, so forked shards would each bring a pool to
    the same CPUs (a gated six-client federation ran 3.3x slower on two),
    and a forked child can inherit a lock held by a thread it does not have.
    A forked shard stays one shard too: as a daemon it may not fork.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):  # no affinity mask or /proc: not Linux
        return 1
    return max(1, min(cpus, n_clients)) if threads == 1 else 1
