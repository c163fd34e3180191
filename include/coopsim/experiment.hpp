/**
 * @file
 * Umbrella header for the coopsim experiment API — the single public
 * entry point for describing, running and rendering experiments:
 *
 *   #include <coopsim/experiment.hpp>
 *
 *   coopsim::api::ExperimentSpec spec;
 *   spec.title = "Figure 5: weighted speedup";
 *   spec.schemes = {"unmanaged", "fairshare", "cpe", "ucp", "coop"};
 *   spec.groups = {"G2-*"};
 *   coopsim::api::printExperiment(spec);
 *
 * Pieces (all in namespace coopsim::api):
 *  - registry.hpp    string-keyed registries: schemes, replacement
 *                    policies, gating/threshold modes, scales,
 *                    workload groups; registerScheme() for extensions
 *  - spec.hpp        ExperimentSpec, Cell, expandSpec() (which also
 *                    validates every name in a spec),
 *                    groupRunKey()/soloRunKey() (the one cell -> RunKey
 *                    rule), the canonical parse/format round-trip for
 *                    specs and RunKeys
 *  - experiment.hpp  ExperimentResults (constructing one expands a spec
 *                    and prefetches its runs), named metrics, table
 *                    printers
 *  - cli.hpp         the shared command-line parser (CliOptions),
 *                    attachCliStore() for --store=DIR sessions
 *  - result_store.hpp (coopsim::store) the disk-backed,
 *                    RunKey-addressed result store behind --store
 */

#ifndef COOPSIM_EXPERIMENT_HPP
#define COOPSIM_EXPERIMENT_HPP

#include "api/cli.hpp"
#include "api/experiment.hpp"
#include "api/registry.hpp"
#include "api/spec.hpp"
#include "store/result_store.hpp"

#endif // COOPSIM_EXPERIMENT_HPP
