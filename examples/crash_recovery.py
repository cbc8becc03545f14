"""Durability walkthrough: WAL, checkpoint, crash, recovery.

Run:  python examples/crash_recovery.py
"""

import os
import tempfile

from repro import XMLStore
from repro.storage.disk import FileBlockDevice, InstrumentedDevice
from repro.storage.recovery import replay
from repro.storage.wal import WriteAheadLog


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-store-") as workdir:
        walkthrough(workdir)


def walkthrough(workdir: str) -> None:
    store_path = os.path.join(workdir, "store.db")
    wal_path = os.path.join(workdir, "store.wal")
    print("store file:", store_path)

    # --- a file-backed store with a durable log ---------------------------
    device = InstrumentedDevice(FileBlockDevice(store_path))
    wal = WriteAheadLog(wal_path)
    store = XMLStore.open(device=device, wal=wal)
    root = store.load_document("<ledger/>")
    store.insert_into_last(root, "<entry id='1'>opening balance</entry>")
    catalog = store.checkpoint()  # flush + checkpoint mark
    print("checkpointed after entry 1")

    # --- more work after the checkpoint, then a crash ----------------------
    store.insert_into_last(root, "<entry id='2'>coffee: -4.50</entry>")
    store.insert_into_last(root, "<entry id='3'>invoice: +1200</entry>")
    print("wrote entries 2 and 3 (not checkpointed)")
    store.pool.drop_all()  # CRASH: dirty pages lost, WAL survives
    print("crash! dirty pages discarded")

    # --- recovery: checkpoint state + WAL replay ----------------------------
    recovered = XMLStore.from_catalog(device, catalog, wal=wal)
    replayed = replay(recovered, wal)
    print(f"replayed {len(replayed)} logged operations")
    text = recovered.read()
    for entry_id in ("1", "2", "3"):
        assert f"id=\"{entry_id}\"" in text, f"entry {entry_id} lost!"
    recovered.check_integrity()
    print("all three entries recovered:")
    print(" ", text)

    # --- alternative: full-log restore onto a fresh store ------------------
    fresh = XMLStore.recover(wal)
    assert fresh.read() == text
    print("full-log restore agrees")

    wal.close()
    device.close()


if __name__ == "__main__":
    main()
