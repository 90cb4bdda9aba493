"""On-policy imitation learning with an annealed cloning/adversarial tradeoff.

The policy is trained on a weighted sum of the behavior-cloning loss and
an adversarial policy-gradient loss; the weight decays exponentially from
1 (pure cloning) toward 0 (pure adversarial imitation), calibrated by its
half-life.  Ships with two desk-scale environments, scripted experts, the
baseline ladder, and a reproduction harness.
"""

__version__ = "0.1.0"
