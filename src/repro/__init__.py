"""FLIM reproduction — fault injection for native logic-in-memory BNNs.

Reproduces Staudigl et al., "Fault Injection in Native Logic-in-Memory
Computation on Neuromorphic Hardware" (DAC 2023) as a self-contained
numpy library.

Subpackages
-----------
``repro.nn``          numpy NN engine (TensorFlow substitute)
``repro.binary``      binarized layers + quantizers (Larq substitute)
``repro.lim``         memristive crossbar substrate + device-level X-Fault
``repro.core``        FLIM: fault generator, masks, vectors, injector
``repro.api``         typed experiment registry + streaming run handles
``repro.scenarios``   declarative lifetime/environment fault scenarios
``repro.models``      binary LeNet + the 9 Table-II architectures (scaled)
``repro.data``        synthetic MNIST / ImageNet stand-ins
``repro.analysis``    metrics, aggregation, plotting, runtime accounting
``repro.experiments`` per-figure experiment runners
"""

__version__ = "1.0.0"
