"""Child process for ``serve_http``: one ``CircuitServer`` on a free
localhost port.  Prints ``host port`` once listening, serves until its
standard input closes, then shuts the server down gracefully.

Usage: ``python3 perfbench/server_main.py`` from the repository root.
"""

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serving import CircuitServer  # noqa: E402


async def main() -> None:
    server = CircuitServer()
    host, port = await server.start()
    print(f"{host} {port}", flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    finally:
        await server.close()


if __name__ == "__main__":
    asyncio.run(main())
