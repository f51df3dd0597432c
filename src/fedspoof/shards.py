"""One pool of shards for every parallel stage: the server process plus up
to one forked process per usable CPU.

Items are spread over the shards, item i to shard i mod W, and a request
runs a named method on each item; the replies come back in item order, so a
result does not depend on W, which the pool picks.  The federation's
clients keep one pool for a run; `run` calls jobs once on a pool of their
own: one per trace to generate or format, the evaluation matrix's models
and the scoring of test windows.  Nothing here imports from the rest of
the package, so every layer can use the pool.

A message crosses a pipe as a pickle of protocol 5 (PEP 574) that holds
everything but the data of its contiguous arrays, followed by that data,
written from each array's own memory and read into a buffer that the
unpickled array then owns; neither side ever holds a message's bytes whole.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import traceback

log = logging.getLogger(__name__)


def _send(conn, obj) -> None:
    """Send obj over conn, each contiguous array's data out of band."""
    buffers: list = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    raws = [buf.raw() for buf in buffers]
    conn.send((head, [raw.nbytes for raw in raws]))
    for raw in raws:
        while raw:
            raw = raw[os.write(conn.fileno(), raw):]


def _recv(conn):
    """The object `_send` sent over conn; EOFError once the other end has closed."""
    head, sizes = conn.recv()
    buffers = [bytearray(size) for size in sizes]
    for buf in buffers:
        view = memoryview(buf)
        while view:
            n = os.readv(conn.fileno(), [view])
            if n == 0:
                raise EOFError
            view = view[n:]
    return pickle.loads(head, buffers=buffers)


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
                method, args = _recv(conn)
            except (EOFError, ConnectionResetError):  # reset: hung up on an unread reply
                return
            try:
                reply = ("ok", _shard_reply(clients, method, args), None)
            except Exception as exc:  # noqa: BLE001 - raised again in the server
                reply = ("error", exc, traceback.format_exc())
            try:
                _send(conn, reply)
            except BrokenPipeError:
                return


class _Shards:
    """The items, such as a federation's active clients, spread over shards,
    item i to shard i mod n, where n is `_shard_count` of the items.

    Shard 0 is the server process.  Every other shard is a process forked
    once, when the shards are made, so it starts with its clients in memory;
    only requests and their replies cross its pipe.  Used as a context
    manager, which ends every forked shard on the way out.
    """

    #: seconds a shard that was hung up on may take to exit
    EXIT_TIMEOUT_S = 10.0

    def __init__(self, clients: list):
        self._clients = clients
        self._n = n = _shard_count(len(clients))
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
            _send(conn, (method, args))
        replies = [_shard_reply(self._clients[:: self._n], method, args)]
        for k, conn in enumerate(self._conns, 1):
            try:
                status, payload, remote_tb = _recv(conn)
            except EOFError:
                raise RuntimeError(f"shard {k} exited without replying") from None
            if status == "error":
                raise payload from RuntimeError(f"in shard {k}:\n{remote_tb}")
            replies.append(payload)
        results: list = [None] * len(self._clients)
        for k, reply in enumerate(replies):
            results[k :: self._n] = reply
        return results


def run(jobs: list) -> list:
    """Each job called once, job i in shard i mod W; the results in job order."""
    with _Shards(jobs) as pool:
        return pool.ask("__call__")


def _shard_count(n_clients: int) -> int:
    """One shard per CPU this process may run on, at most one per client
    and at least one: shard 0, the server, answers for an empty list.

    A process that already runs other threads stays one shard and warns: an
    unpinned BLAS keeps a thread per CPU, so forked shards would each bring a
    pool to the same CPUs (a gated six-client federation ran 3.3x slower on
    two), and a forked child can inherit a lock held by a thread it lacks.  A
    forked shard, a daemon, may not fork: it stays one shard, silently.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):  # no affinity mask or /proc: not Linux
        return 1
    if threads > 1 < min(cpus, n_clients):
        log.warning("%d threads already run in this process: one shard, none forked", threads)
    return max(1, min(cpus, n_clients)) if threads == 1 else 1
