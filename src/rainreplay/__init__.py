"""Continual de-raining with generative rain-memory replay.

Modules:
    imaging   - image container, PSNR/SSIM, HOG, KL divergence, PPM output
    synthdata - procedural backgrounds, rain layers, dataset streams
    memgen    - fitted rain-memory generators, replay assembly, reuse cache
    restorer  - small residual de-raining net with hand-written backprop
    pipeline  - stage loop: interleaved training, distillation, speedup
    costs     - symbolic cost accounting and the harmonic reuse bound
    cli       - command-line front end
"""

from .imaging import Image, HogDescriptor, hog, kl_divergence, psnr, ssim
from .synthdata import DatasetSpec, RainDataset, RainParams, make_dataset, make_stream
from .pipeline import StageConfig, baseline_individual, baseline_sf, run_stream

__version__ = "0.1.0"
