// Kept only because perfbench/bridge_bench.cpp includes this header and
// names the type below; both go when the benchmark stops naming them.
#pragma once

#include "src/core/client.hpp"

namespace bridge::core {

/// BridgeClient serves one Bridge Server or many; perfbench's old name.
using RoutedBridgeClient = BridgeClient;

}  // namespace bridge::core
