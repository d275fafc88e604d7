// Umbrella header: the full holtwlan public API.
//
// Substrate layers can also be included individually; this header is the
// convenient starting point for examples and downstream users.
#pragma once

#include "channel/awgn.h"        // IWYU pragma: export
#include "channel/doppler.h"     // IWYU pragma: export
#include "channel/fading.h"      // IWYU pragma: export
#include "channel/mimo.h"        // IWYU pragma: export
#include "channel/pathloss.h"    // IWYU pragma: export
#include "common/rng.h"          // IWYU pragma: export
#include "common/types.h"        // IWYU pragma: export
#include "common/units.h"        // IWYU pragma: export
#include "coop/coop.h"           // IWYU pragma: export
#include "core/abstraction.h"    // IWYU pragma: export
#include "core/link.h"           // IWYU pragma: export
#include "core/standards.h"      // IWYU pragma: export
#include "linalg/decompose.h"    // IWYU pragma: export
#include "mac/bianchi.h"         // IWYU pragma: export
#include "mac/dcf.h"             // IWYU pragma: export
#include "mac/psm.h"             // IWYU pragma: export
#include "dsp/spectrum.h"        // IWYU pragma: export
#include "mac/frames.h"          // IWYU pragma: export
#include "mac/rate_adapt.h"      // IWYU pragma: export
#include "mesh/mesh.h"           // IWYU pragma: export
#include "net/netsim.h"          // IWYU pragma: export
#include "phy/cck.h"             // IWYU pragma: export
#include "phy/dsss.h"            // IWYU pragma: export
#include "phy/fhss.h"            // IWYU pragma: export
#include "phy/ht.h"              // IWYU pragma: export
#include "phy/ldpc.h"            // IWYU pragma: export
#include "phy/ofdm.h"            // IWYU pragma: export
#include "phy/plcp.h"            // IWYU pragma: export
#include "phy/sync.h"            // IWYU pragma: export
#include "power/power.h"         // IWYU pragma: export
