// Name registries: the bridge that turns campaigns into *data*.
//
// A scenario spec names its algorithm and its instance sampler as strings;
// these registries resolve them to the library's factories. Algorithms
// resolve to an instance-aware resolver because two entries ("boundary",
// "recommended") pick their program from the instance under test; the
// instance-independent ones ignore the argument.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "agents/gather_sampler.hpp"
#include "agents/instance.hpp"
#include "agents/sampler.hpp"
#include "sim/engine.hpp"

namespace aurv::exp {

/// Builds the AlgorithmFactory to run on `instance`.
using AlgorithmResolver = std::function<sim::AlgorithmFactory(const agents::Instance&)>;

/// Draws one instance from a region of the Theorem 3.1 characterization.
using SamplerFn =
    std::function<agents::Instance(agents::SampleRng&, const agents::SamplerRanges&)>;

/// Draws one n-agent gathering configuration (gatherx censuses).
using GatherSamplerFn = std::function<agents::GatherInstance(agents::SampleRng&,
                                                             const agents::GatherSamplerRanges&)>;

/// Resolve by name; throws std::invalid_argument listing the known names on
/// a miss.
[[nodiscard]] AlgorithmResolver resolve_algorithm(const std::string& name);
[[nodiscard]] SamplerFn resolve_sampler(const std::string& name);
[[nodiscard]] GatherSamplerFn resolve_gather_sampler(const std::string& name);

/// Resolves an algorithm that does not look at the instance under test —
/// the only kind the gathering pipelines accept, because every agent of a
/// gathering run executes the *common* program and there is no two-agent
/// instance to dispatch on. Throws std::invalid_argument for the
/// instance-aware entries ("boundary", "recommended") and for unknown names.
[[nodiscard]] sim::AlgorithmFactory resolve_common_algorithm(const std::string& name);

/// Registered names, in registry (presentation) order.
[[nodiscard]] const std::vector<std::string>& algorithm_names();
[[nodiscard]] const std::vector<std::string>& sampler_names();
[[nodiscard]] const std::vector<std::string>& gather_sampler_names();

}  // namespace aurv::exp
