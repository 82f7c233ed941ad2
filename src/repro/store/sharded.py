"""Former home of the indexed store; :class:`ResultStore` is the one class.

``ShardedResultStore`` has been a public name since PR 7, so it stays bound
— to the same class object, not a subclass.
"""

from .store import ResultStore

__all__ = ["ShardedResultStore"]

ShardedResultStore = ResultStore
