// Package attack is the RO-TRNG threat catalog: models of the
// non-invasive attacks and environmental failures that motivate the
// paper's security discussion (§I cites Markettos & Moore's frequency
// injection, CHES 2009, and Bayon et al.'s electromagnetic attack,
// COSADE 2012), expressed as composable, schedulable scenarios that
// detection experiments arm on live oscillators and score end-to-end.
//
// # Scenarios and the defense layer that catches each
//
// Oscillator-level scenarios implement Scenario and arm on an
// osc.Oscillator (use ArmBoth for a pair); SamplerBias wraps the raw
// bit source instead. Every scenario carries a Schedule (onset delay,
// linear ramp, hold duration, revert), so transients, slow ramps and
// persistent attacks compose from the same primitives.
//
// The "caught by" column is MEASURED, not aspirational: it is what
// experiments.AttackMatrix observes at the daemon's pinned operating
// point (eRO ×100 at divider 4, §V monitor W=10 at α=1e-6, SP 800-90B
// assessment every 10000 raw bits at threshold 0.40), and the coverage
// assertions in that experiment and in CI hold the catalog to it.
// Latency bounds are raw bits from attack onset; a ramped attack gets
// its ramp first.
//
//	scenario            physics modeled                      caught by        latency bound
//	------------------  -----------------------------------  ---------------  -------------------------
//	ThermalSuppression  deep cooling / jitter clamp:         AIS 31 tot       4096 raw bits (usually
//	                    thermal amplitude × (1−Factor);      (flatline); the  the first post-onset
//	                    the phase walk freezes and the bit   assessment wins  chunks)
//	                    stream flatlines                     the race when
//	                                                         residual
//	                                                         flicker keeps
//	                                                         bits twitching
//	FlickerBoost        aging / stress-induced 1/f growth:   §V monitor       16384 raw bits (~2 full
//	                    variance INFLATES while bits stay    (thermal-high)   monitor windows); tot and
//	                    lively and entropy stays high                         the assessment never fire
//	Injection           tone couples into the ring and       SP 800-90B       65536 raw bits (~2
//	                    entrains it (JitterSuppression):     assessment       assessment cycles): the
//	                    the deterministic wobble keeps the   (low-entropy)    tone masks thermal-low at
//	                    bits toggling (no tot) and inflates                   the monitor site while
//	                    the monitor-site variance (no                         delivered entropy
//	                    thermal-low)                                          collapses
//	Locking             Injection at the Adler threshold     SP 800-90B       same bound
//	                    depth (LockingDepth), partial lock   assessment
//	SupplyRipple        shared supply rail: one modulator    SP 800-90B on    same bound, on every
//	                    armed on every coupled shard         EVERY coupled    coupled shard near-
//	                                                         shard            simultaneously
//	NoiseKill           dead source (supply fault, clock     AIS 31 tot       4096 raw bits (TotWindow
//	                    substitution): both components off                    + one raw chunk)
//	SlowThermalRamp     temperature ramp slow enough that    SP 800-90B       ramp + 65536 raw bits
//	                    every per-window χ² stays in         assessment       (the EVASION case: tot,
//	                    tolerance, floor above the monitor   (low-entropy)    startup and §V stay
//	                    alarm corridor                                        silent the whole ramp)
//	SamplerBias         comparator/duty-cycle skew at the    SP 800-90B       65536 raw bits (the
//	                    sampling flip-flop; rings healthy    assessment       monitor taps the rings,
//	                                                                          so it is blind here)
//
// Behind all of these sits the calibration gate: a quarantined shard
// is only re-admitted through a full startup sequence (AIS 31 startup
// test, with the tot test, the §V monitor and the assessment collector
// live during collection), so a persistent attack blocks re-admission
// even when its live detection was slow. The DRBG expansion layer
// fails closed independently: once quarantines starve the seed taps,
// reseed draws return ErrSeedStarved and generation stops rather than
// serving unseeded output.
//
// experiments.AttackMatrix runs this catalog against live health-gated
// pools and measures the (scenario × defense layer) detection-coverage
// matrix, including per-class detection latency from the incident
// engine's injection-marker → quarantine pairing (see Mark).
package attack
