#include "pipeline/overload.h"

namespace countlib {
namespace pipeline {

const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kShed:
      return "shed";
  }
  return "unknown";
}

}  // namespace pipeline
}  // namespace countlib
