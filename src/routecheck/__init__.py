"""Routing verification service and SDN data-plane simulator, desk scale.

A simulated OpenFlow-style network under a scriptable (and possibly
compromised) management plane, plus a trusted verification controller
that answers client queries about reachability, isolation and geographic
exposure through snapshot monitoring, wildcard header-space analysis and
an in-band authenticated probe protocol.
"""
