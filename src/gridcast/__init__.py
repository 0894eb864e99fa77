"""gridcast: an encoder-processor-decoder weather emulator on a lat-lon grid.

The package is organized bottom-up:

    autodiff       dense float64 tensors with reverse-mode differentiation
    serialization  binary parameter container
    offload        synchronous segment store that keeps rollout inputs off the tape
    grid           lat-lon geometry, weights, neighborhoods, static fields
    attention      rotary neighborhood attention transformer blocks
    model          encoder / processors / decoder, source blending, configs
    rollout        greedy mixed-horizon latent time stepping; forecast, the one path
    synthdata      deterministic synthetic atmospheres and their container
    training       multi-horizon curriculum, staged fine-tuning, optimizer
    evaluation     weighted RMSE, zonal spectra, sharpness, ensemble curves
    cli            subcommand front end over the above, and run manifests
"""

__version__ = "0.1.0"

from .autodiff import Tensor, backward, checkpoint_segment, no_grad  # noqa: F401
