/**
 * @file
 * Umbrella header: include this to get the whole LeakyHammer library.
 *
 * Layering (bottom-up):
 *  - leaky::sim      event queue, ticks, RNG, logging
 *  - leaky::dram     DDR5 device model, address mapping, defense hooks
 *  - leaky::ctrl     memory controller (FR-FCFS, refresh, ABO protocol)
 *  - leaky::defense  PRAC / PRFM / FR-RFM / RIAC / Bank-PRAC / PARA
 *  - leaky::sys      caches, cores, prefetcher, System (MemoryPort)
 *  - leaky::workload SPEC-like and website trace generators
 *  - leaky::attack   LeakyHammer probes, covert channels, side channel
 *  - leaky::ml       fingerprinting classifiers
 *  - leaky::stats    channel capacity, weighted speedup
 *  - leaky::core     experiment runners and reporting
 */

#ifndef LEAKY_CORE_LEAKYHAMMER_HH
#define LEAKY_CORE_LEAKYHAMMER_HH

#include "attack/counter_leak.hh"
#include "attack/covert.hh"
#include "attack/dram_addr.hh"
#include "attack/fingerprint.hh"
#include "attack/message.hh"
#include "attack/noise.hh"
#include "attack/probe.hh"
#include "core/experiments.hh"
#include "core/report.hh"
#include "ctrl/controller.hh"
#include "defense/factory.hh"
#include "defense/fr_rfm.hh"
#include "defense/para.hh"
#include "defense/policy.hh"
#include "defense/prac.hh"
#include "defense/prfm.hh"
#include "dram/channel.hh"
#include "dram/mapping.hh"
#include "ml/classifier.hh"
#include "ml/ensemble.hh"
#include "ml/linear.hh"
#include "ml/metrics.hh"
#include "ml/tree.hh"
#include "sim/event_queue.hh"
#include "stats/channel_metrics.hh"
#include "sys/core.hh"
#include "sys/system.hh"
#include "workload/synthetic.hh"
#include "workload/website.hh"

#endif // LEAKY_CORE_LEAKYHAMMER_HH
