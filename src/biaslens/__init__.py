"""Class-imbalance bias auditing for detection-style datasets.

The toolkit measures how skewed class distributions shape model behavior
(per-class detection quality, attention placement, unit selectivity),
then applies and re-evaluates mitigations: resampling, cost-sensitive
loss weights, attention-guided augmentation, and weight recalibration.
"""

__version__ = "0.1.0"
