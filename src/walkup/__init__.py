"""Exact computation on small simplicial complexes.

Core value types live in :mod:`walkup.core`; generators for the named
complexes (the 2-sphere catalog, Walkup's K^3_9, the cyclic 3-sphere C^3_7
and its glued double) in :mod:`walkup.constructions`.  Recognition,
bistellar moves, isomorphism, homology, the coclique case analyses and the
small censuses each have their own module, and :mod:`walkup.cli` exposes the
whole toolkit as one command.  The package itself re-exports nothing, so
importing one module loads only the modules that it uses.
"""
