"""The daemon's connection reader: head lines from a small scratch buffer, and
each frame read in place (``recv_into`` its own ``bytearray``), so a frame's
bytes are written once, where the operand views read them.  Only the daemon
imports this module, so the client path loads no asyncio.
"""

from __future__ import annotations

import asyncio
import select
from typing import Awaitable, Callable, Optional

#: Scratch bytes a connection starts with; only a longer head line grows it.
SCRATCH_BYTES = 64 * 1024


class Connection(asyncio.BufferedProtocol):
    """One daemon connection: awaitable reads for its *serve* task, a transport to
    write.  *limit* bounds a head line and the unread scratch bytes, past which
    reading pauses until the handler catches up."""

    def __init__(self, limit: int, serve: Callable[["Connection"], Awaitable[None]]) -> None:
        self.limit = limit
        self.transport: Optional[asyncio.Transport] = None
        self._serve = serve
        self._scratch = bytearray(SCRATCH_BYTES)
        self._start = self._end = 0  # the unread bytes are scratch[start:end]
        self._target: Optional[memoryview] = None  # what a frame still lacks
        self._waiter: Optional[asyncio.Future] = None  # the handler's wait for bytes
        self._drained: Optional[asyncio.Future] = None  # writes wait while set
        self._eof = self._paused = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        """Start the handler task."""
        self.transport = transport  # type: ignore[assignment]
        self._task = asyncio.ensure_future(self._serve(self))

    def get_buffer(self, sizehint: int) -> memoryview:
        """The rest of the frame being read, else the scratch buffer's free end."""
        if self._target is not None:
            return self._target
        if self._start == self._end:
            self._start = self._end = 0
        if len(self._scratch) - self._end < SCRATCH_BYTES // 16:
            unread = self._scratch[self._start : self._end]
            self._scratch = unread + bytearray(max(len(unread), SCRATCH_BYTES))
            self._start, self._end = 0, len(unread)
        return memoryview(self._scratch)[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        """Account *nbytes* read; wake the handler unless a frame is still short."""
        if self._target is not None:
            self._target = self._target[nbytes:] or None
        else:
            self._end += nbytes
            if self._end - self._start > self.limit and not self._paused:
                self._paused = True
                self.transport.pause_reading()
        if self._target is None:
            self._wake()

    def eof_received(self) -> bool:
        """Wake the handler to read what is left."""
        self._eof = True
        self._wake()
        return False  # close the transport

    def connection_lost(self, exc: Optional[Exception]) -> None:
        """End reads as at EOF and release a waiting writer."""
        self.eof_received()
        self.resume_writing()

    def pause_writing(self) -> None:
        """Make :meth:`drain` wait."""
        self._drained = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        """Release :meth:`drain`."""
        if self._drained is not None and not self._drained.done():
            self._drained.set_result(None)
        self._drained = None

    async def readline(self) -> bytes:
        """The next line (``\\n`` included; at EOF what is left, then ``b""``);
        ``ValueError`` once it exceeds ``limit`` bytes."""
        scanned = 0
        while True:
            at = self._scratch.find(b"\n", self._start + scanned, self._end)
            size = (at + 1 if at >= 0 else self._end) - self._start
            if size > self.limit:
                raise ValueError(f"line exceeds {self.limit} bytes")
            if at >= 0 or self._eof:
                line = bytes(self._scratch[self._start : self._start + size])
                self._consume(size)
                return line
            scanned = size
            await self._wait()

    async def readinto(self, frame: bytearray) -> None:
        """Fill *frame* with the next bytes: what the scratch buffer holds is copied,
        the rest read straight into it.  ``EOFError`` if the stream ends first."""
        have = min(len(frame), self._end - self._start)
        frame[:have] = self._scratch[self._start : self._start + have]
        self._consume(have)
        if have < len(frame):
            self._target = memoryview(frame)[have:]
            try:
                if not self._eof:
                    await self._wait()
            finally:
                short, self._target = self._target is not None, None
            if short:
                raise EOFError("stream ended inside a frame")

    def unread(self) -> bool:
        """Whether bytes arrived that no read has taken, buffered or in the socket."""
        if self._end > self._start:
            return True
        fd = self.transport.get_extra_info("socket").fileno()
        poller = select.poll()
        if fd >= 0:  # -1 once the transport has closed it
            poller.register(fd, select.POLLIN)
        return bool(poller.poll(0))

    async def drain(self) -> None:
        """Wait while the transport's write buffer is over its high-water mark."""
        if self.transport.is_closing():
            raise ConnectionResetError("connection lost")
        if self._drained is not None:
            await self._drained

    def _consume(self, nbytes: int) -> None:
        self._start += nbytes
        if self._paused and self._end - self._start <= self.limit:
            self._paused = False
            self.transport.resume_reading()

    async def _wait(self) -> None:
        self._waiter = asyncio.get_running_loop().create_future()
        try:
            await self._waiter
        finally:
            self._waiter = None

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)
