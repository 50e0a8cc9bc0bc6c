// The base filesystem's side of the op-request interface: one OpRequest in,
// one OpOutcome out. It is the mirror of shadow_apply_op, and the only place
// that turns a request into a BaseFs call. The supervisors call it for the
// in-process base, and the forked base server calls it for every frame it
// decodes.
#pragma once

#include "basefs/base_fs.h"
#include "oplog/op.h"

namespace raefs {

/// Execute `req` on `fs`. Read-class results travel in the outcome's
/// payload (oplog/payload.h), exactly as the shadow returns them. A base
/// panic propagates as FsPanicError.
OpOutcome base_apply_op(BaseFs& fs, const OpRequest& req);

}  // namespace raefs
