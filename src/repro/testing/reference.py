"""The differential-testing oracle: a plain in-memory reference store.

It is a :class:`~repro.concurrency.recorddoc.RecordDocument` with dense id
assignment, sharing nothing with :class:`~repro.core.store.XMLStore` but
the parser and the emitter.  The property tests drive random operation
sequences against both and require agreement; the crash-consistency
torture harness (:mod:`repro.testing.torture`) uses it to know which node
ids are valid targets while generating workloads, and what the document
must serialize to after recovering a prefix of the operation history.
perfbench's oracle subclasses it under this name.
"""

from repro.concurrency.recorddoc import RecordDocument as ReferenceStore

__all__ = ["ReferenceStore"]
